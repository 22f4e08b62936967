#pragma once
// Priority vectors for the list-scheduling engine (paper Sections 4.2, 5.2).
// All vectors are indexed by flattened task id and use the engine's
// "smaller value runs first" convention, so "higher preferred" schemes
// (descendants, DFDS) are stored negated.
//
// Every per-direction construction loop below fans out across the global
// util::ThreadPool (DESIGN.md §11): direction i fills its own contiguous
// slice priorities[i*n, (i+1)*n) and, when it needs randomness, draws from
// its own util::Rng::for_stream(base, i) stream, where `base` is a single
// draw from the caller's Rng. Output is therefore byte-identical for any
// `jobs` (0 = all cores, 1 = serial) and independent of direction iteration
// order. The `*_reference` twins are preserved plain serial loops used by
// the tests (PrioritiesParallel.*) and the fuzz oracle bank as differential
// baselines.

#include <cstdint>
#include <vector>

#include "core/schedule.hpp"
#include "core/types.hpp"
#include "sweep/instance.hpp"
#include "util/rng.hpp"

namespace sweep::core {

/// Uniform random delays X_i in {0,...,k-1}, one per direction (step 1 of
/// Algorithms 1-3).
std::vector<TimeStep> random_delays(std::size_t n_directions, util::Rng& rng);

/// Level priorities: Gamma(v,i) = level_i(v) (Section 5.2, "Level
/// Priorities").
std::vector<std::int64_t> level_priorities(const dag::SweepInstance& instance);

/// Algorithm 2 priorities: Gamma(v,i) = level_i(v) + X_i, built in parallel
/// across directions.
std::vector<std::int64_t> random_delay_priorities(
    const dag::SweepInstance& instance, const std::vector<TimeStep>& delays,
    std::size_t jobs = 0);

/// Preserved serial twin of random_delay_priorities.
std::vector<std::int64_t> random_delay_priorities_reference(
    const dag::SweepInstance& instance, const std::vector<TimeStep>& delays);

/// Descendant priorities (Plimpton et al. [15]): more descendants run first.
/// Exact (tiled) counts for small DAGs, Cohen-estimated for large ones.
/// Consumes exactly one draw from `rng` to derive the per-direction streams,
/// regardless of k or of which directions take the estimator path.
std::vector<std::int64_t> descendant_priorities(
    const dag::SweepInstance& instance, util::Rng& rng, std::size_t jobs = 0);

/// Preserved serial twin of descendant_priorities: identical stream
/// derivation, but plain loop + reference (naive bitset) exact counter.
std::vector<std::int64_t> descendant_priorities_reference(
    const dag::SweepInstance& instance, util::Rng& rng);

/// b-level (critical-path-first) priorities: tasks with the longest
/// remaining path to a sink run first. A standard DAG-scheduling heuristic
/// (the backbone of DFDS's tie-breaking) included as an extra comparator.
std::vector<std::int64_t> blevel_priorities(const dag::SweepInstance& instance,
                                            std::size_t jobs = 0);

/// Preserved serial twin of blevel_priorities.
std::vector<std::int64_t> blevel_priorities_reference(
    const dag::SweepInstance& instance);

/// DFDS priorities (Pautz [14], as described in Section 5.2). Priorities
/// depend on the processor assignment through "off-processor children":
///  - a task with off-processor children gets C + max b-level of those
///    children, where C >= #levels of the DAG;
///  - a task whose children are all on-processor gets (max child priority)-1;
///  - a task with no off-processor descendants gets 0.
/// Higher preferred (stored negated for the engine).
std::vector<std::int64_t> dfds_priorities(const dag::SweepInstance& instance,
                                          const Assignment& assignment,
                                          std::size_t jobs = 0);

/// Preserved serial twin of dfds_priorities.
std::vector<std::int64_t> dfds_priorities_reference(
    const dag::SweepInstance& instance, const Assignment& assignment);

/// Per-task release times from per-direction delays: task (v,i) may not
/// start before X_i. This is how "random delays" are added to heuristics
/// whose priority scale is not level-based (descendants, DFDS).
std::vector<TimeStep> delay_release_times(const dag::SweepInstance& instance,
                                          const std::vector<TimeStep>& delays);

}  // namespace sweep::core
