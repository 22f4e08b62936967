#pragma once
// The prioritized list-scheduling engine (paper Section 3, "List
// Scheduling"): at each timestep every processor runs the ready task of
// smallest priority value among the tasks assigned to it. All list-based
// algorithms in the paper — Algorithm 2 (random delays with priorities),
// level priorities, descendant priorities, DFDS — are this engine with
// different priority vectors, which keeps comparisons apples-to-apples.
//
// Optional per-task release times implement the "add random delays to a
// heuristic" variants of Section 5.2: task (v,i) may not start before its
// release time X_i.

#include <span>

#include "core/schedule.hpp"
#include "sweep/instance.hpp"

namespace sweep::core {

struct ListScheduleOptions {
  /// Per-task priority; SMALLER runs first; ties broken by task id.
  /// Empty means all tasks have equal priority.
  std::span<const std::int64_t> priorities = {};
  /// Per-task earliest start times. Empty means no release constraints.
  std::span<const TimeStep> release_times = {};
  /// Communication delay c (in task units): a task whose predecessor ran on
  /// a DIFFERENT processor may start no earlier than c steps after that
  /// predecessor finished (the P|prec,c|Cmax model of Related Work [4,13],
  /// restricted by the sweep same-processor constraint). 0 = the paper's
  /// zero-communication analysis setting.
  TimeStep cross_message_delay = 0;
  /// Has no effect: there is one engine and it is serial. A sharded
  /// work-stealing engine used to run here for jobs != 1; it paid two
  /// fork/joins per simulated timestep and measured 3-4x slower than the
  /// serial engine at 4 cores (DESIGN.md §12), so it was deleted. Parallelism
  /// lives across schedules instead (trial fan-outs, per-request serving).
  /// The field stays so that existing callers keep compiling.
  std::size_t jobs = 1;
};

/// Runs prioritized list scheduling of `instance` on `n_processors`
/// processors under the fixed cell->processor `assignment`.
/// Guarantees: result is complete and feasible (precedence + same-processor
/// + one-task-per-slot), and no processor idles while it has a ready,
/// released task — the "no idle times" property of Algorithm 2.
Schedule list_schedule(const dag::SweepInstance& instance,
                       const Assignment& assignment, std::size_t n_processors,
                       const ListScheduleOptions& options = {});

/// Same engine, driven straight from a flat TaskGraph — the serving path
/// (sweep_serve) schedules out of an mmap'ed artifact without ever
/// materializing a SweepInstance. Bit-identical to the instance overload for
/// the graph that instance.task_graph() returns.
Schedule list_schedule(const dag::TaskGraph& graph, const Assignment& assignment,
                       std::size_t n_processors,
                       const ListScheduleOptions& options = {});

/// The pre-engine implementation (per-direction DAG walks, task-id
/// arithmetic per edge, binary heaps). Produces bit-identical schedules to
/// list_schedule; kept as the oracle for the engine equivalence tests and as
/// the "old path" in the throughput microbenchmarks.
Schedule list_schedule_reference(const dag::SweepInstance& instance,
                                 const Assignment& assignment,
                                 std::size_t n_processors,
                                 const ListScheduleOptions& options = {});

/// Greedy (Graham) list schedule of the union DAG H on m identical machines,
/// ignoring the same-processor constraint — the preprocessing step of
/// Algorithm 3 and a natural baseline/lower-bound helper. Returns the step at
/// which each task runs; `makespan` (if non-null) receives the step count.
/// Within a step at most m tasks run; a task never runs before a predecessor.
std::vector<TimeStep> greedy_union_schedule(const dag::SweepInstance& instance,
                                            std::size_t n_processors,
                                            std::size_t* makespan = nullptr);

}  // namespace sweep::core
