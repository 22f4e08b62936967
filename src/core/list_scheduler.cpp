#include "core/list_scheduler.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sweep/task_graph.hpp"
#include "util/arena.hpp"

namespace sweep::core {
namespace {

using Task32 = dag::TaskGraph::Task;

/// Per-thread scratch for the engine. list_schedule is called in tight loops
/// (trial fan-outs run thousands of schedules per thread); carving every
/// per-call lane out of one reused 64-byte-aligned arena avoids re-faulting
/// about 24 bytes per task of fresh pages on each call.
util::Arena& engine_arena() {
  thread_local util::Arena arena;
  return arena;
}

/// Stable LSD radix sort of the pairs (keys[i], ids[i]) by key, ascending:
/// one counting pass per key byte, least significant first. A byte on which
/// every key agrees would put every key in one bucket and move nothing, so
/// it is skipped: narrow keys (levels, a few hundred processors) cost one or
/// two passes, and any u64 key still sorts. `ids_tmp` / `keys_tmp` are
/// scratch of the same length; the pointers swap with them on every pass
/// taken, so on return `ids` / `keys` hold the sorted pairs and the tmp
/// pointers the free buffers.
void radix_sort_by_key(std::uint32_t*& ids, std::uint64_t*& keys,
                              std::uint32_t*& ids_tmp,
                              std::uint64_t*& keys_tmp, std::size_t n) {
  std::uint64_t any = 0;
  std::uint64_t all = ~std::uint64_t{0};
  for (std::size_t i = 0; i < n; ++i) {
    any |= keys[i];
    all &= keys[i];
  }
  const std::uint64_t varying = any ^ all;
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFF) == 0) continue;
    std::array<std::uint32_t, 256> next{};
    for (std::size_t i = 0; i < n; ++i) ++next[(keys[i] >> shift) & 0xFF];
    std::uint32_t acc = 0;
    for (std::uint32_t& c : next) acc += std::exchange(c, acc);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t pos = next[(keys[i] >> shift) & 0xFF]++;
      ids_tmp[pos] = ids[i];
      keys_tmp[pos] = keys[i];
    }
    std::swap(ids, ids_tmp);
    std::swap(keys, keys_tmp);
  }
}

/// The slot-map engine.
///
/// Every task gets a static SLOT: slots are the tasks in (processor,
/// priority, task id) order, built by two stable radix sorts starting from
/// ascending task id — first on the rebased priority u64(p) - u64(min),
/// then on the processor. Each processor that owns tasks gets one REGION,
/// its dense run of slots; processors without tasks cost nothing, so every
/// lane is O(n·k) whatever m is. The ready set is one bitmap over slots:
///   push = set the task's slot bit, and keep the region's hint (the lowest
///          live slot bound) and queued count;
///   pop  = find-first-set from the region's hint. Every live slot of the
///          region lies at or above its hint, and the region has one, so the
///          first set bit found is that region's lowest live slot, which IS
///          the (priority, task id) minimum the reference heap would pop.
/// A region is on the active list exactly while its queued count is > 0.
template <bool kGated>
Schedule run_slot_engine(const dag::TaskGraph& tg,
                         const Assignment& assignment,
                         std::size_t n_processors,
                         const ListScheduleOptions& options) {
  const std::size_t total = tg.n_tasks();
  const std::uint32_t* cell = tg.cells().data();
  const std::size_t max_regions = std::min(tg.n_cells(), n_processors);

  obs::PhaseSpan build_phase("engine.slot.build");
  util::Arena& arena = engine_arena();
  arena.reserve(util::Arena::lane_bytes<std::uint32_t>(total) * 2 +
                util::Arena::lane_bytes<std::uint64_t>(total) * 2 +
                util::Arena::lane_bytes<std::uint64_t>(total / 64 + 1) +
                util::Arena::lane_bytes<std::uint32_t>(max_regions) * 2);
  std::uint32_t* ids = arena.alloc<std::uint32_t>(total);
  std::uint32_t* ids_tmp = arena.alloc<std::uint32_t>(total);
  std::uint64_t* keys = arena.alloc<std::uint64_t>(total);
  std::uint64_t* keys_tmp = arena.alloc<std::uint64_t>(total);

  for (std::size_t t = 0; t < total; ++t) ids[t] = static_cast<Task32>(t);
  if (!options.priorities.empty()) {
    // Unsigned rebasing: any two int64 priorities, even INT64_MIN and
    // INT64_MAX, differ by less than 2^64, and the map is order-preserving.
    const std::int64_t* priority = options.priorities.data();
    const auto min_priority = static_cast<std::uint64_t>(
        *std::min_element(options.priorities.begin(),
                          options.priorities.end()));
    for (std::size_t t = 0; t < total; ++t) {
      keys[t] = static_cast<std::uint64_t>(priority[t]) - min_priority;
    }
    radix_sort_by_key(ids, keys, ids_tmp, keys_tmp, total);
  }
  for (std::size_t i = 0; i < total; ++i) keys[i] = assignment[cell[ids[i]]];
  radix_sort_by_key(ids, keys, ids_tmp, keys_tmp, total);

  // ids is now slot -> task and keys slot -> processor. The sort's free
  // buffers become the per-task lanes: place[t] = (region << 32) | slot, and
  // the remaining-indegree counters.
  const Task32* task_at = ids;
  std::uint64_t* place = keys_tmp;
  std::size_t n_regions = 0;
  for (std::size_t s = 0; s < total; ++s) {
    if (s == 0 || keys[s] != keys[s - 1]) ++n_regions;
    place[task_at[s]] = (static_cast<std::uint64_t>(n_regions - 1) << 32) | s;
  }
  std::uint32_t* indeg = ids_tmp;
  std::copy(tg.indegrees().begin(), tg.indegrees().end(), indeg);

  Schedule schedule(tg.n_cells(), tg.n_directions(), n_processors, assignment);
  std::uint64_t* bitmap = arena.alloc_zero<std::uint64_t>(total / 64 + 1);
  // hint[r]: no live slot of region r is below this (valid iff queued > 0).
  std::uint32_t* hint = arena.alloc<std::uint32_t>(n_regions);
  std::uint32_t* queued = arena.alloc_zero<std::uint32_t>(n_regions);
  std::vector<std::uint32_t> active;
  active.reserve(n_regions);

  auto push = [&](Task32 t) {
    const auto s = static_cast<std::uint32_t>(place[t]);
    const auto r = static_cast<std::uint32_t>(place[t] >> 32);
    bitmap[s >> 6] |= 1ull << (s & 63);
    if (queued[r]++ == 0) {
      hint[r] = s;
      active.push_back(r);
    } else if (s < hint[r]) {
      hint[r] = s;
    }
  };

  // Gated-only state: tasks whose predecessors are done but whose release
  // (or cross-processor message) has not yet come due, keyed by due time.
  using Release = std::pair<TimeStep, Task32>;
  std::priority_queue<Release, std::vector<Release>, std::greater<>> pending;
  const TimeStep* release =
      options.release_times.empty() ? nullptr : options.release_times.data();
  std::vector<TimeStep> earliest;
  if (kGated && options.cross_message_delay > 0) earliest.assign(total, 0);

  auto enqueue_ready = [&](Task32 t, TimeStep now) {
    if constexpr (kGated) {
      TimeStep rel = release != nullptr ? release[t] : 0;
      if (!earliest.empty()) rel = std::max(rel, earliest[t]);
      if (rel > now) {
        pending.push({rel, t});
        return;
      }
    }
    push(t);
  };

  for (std::size_t t = 0; t < total; ++t) {
    if (indeg[t] == 0) enqueue_ready(static_cast<Task32>(t), 0);
  }
  build_phase.done();
  obs::PhaseSpan run_phase("engine.slot.run");

  std::size_t done = 0;
  std::vector<Task32> finished;
  finished.reserve(n_regions);
  std::vector<std::uint32_t> still_active;
  still_active.reserve(n_regions);
  std::uint64_t scan_words = 0;
  std::size_t peak_active = 0;

  TimeStep now = 0;
  while (done < total) {
    if constexpr (kGated) {
      // Releases that have come due.
      while (!pending.empty() && pending.top().first <= now) {
        const Task32 task = pending.top().second;
        pending.pop();
        push(task);
      }
      if (active.empty()) {
        if (pending.empty()) {
          throw std::logic_error(
              "list_schedule: deadlock — instance DAG has a cycle");
        }
        now = pending.top().first;
        continue;
      }
    } else {
      if (active.empty()) {
        throw std::logic_error(
            "list_schedule: deadlock — instance DAG has a cycle");
      }
    }

    // Each active region (processor) runs its lowest live slot this step.
    finished.clear();
    still_active.clear();
    peak_active = std::max(peak_active, active.size());
    for (const std::uint32_t r : active) {
      std::size_t w = hint[r] >> 6;
      std::uint64_t word = bitmap[w] & (~0ull << (hint[r] & 63));
      while (word == 0) {
        word = bitmap[++w];
        ++scan_words;
      }
      const auto s =
          static_cast<std::uint32_t>((w << 6) + std::countr_zero(word));
      bitmap[w] &= ~(1ull << (s & 63));
      hint[r] = s;
      const Task32 task = task_at[s];
      schedule.set_start(task, now);
      finished.push_back(task);
      if (--queued[r] != 0) still_active.push_back(r);
    }
    active.swap(still_active);
    done += finished.size();

    // Newly ready successors become available from now+1 (or their release;
    // or now+1+c if the message must cross processors).
    for (const Task32 task : finished) {
      const std::uint64_t task_region = place[task] >> 32;
      for (const Task32 succ : tg.successors(task)) {
        if constexpr (kGated) {
          if (!earliest.empty() && (place[succ] >> 32) != task_region) {
            earliest[succ] = std::max(earliest[succ],
                                      now + 1 + options.cross_message_delay);
          }
        }
        if (--indeg[succ] == 0) enqueue_ready(succ, now + 1);
      }
    }
    ++now;
  }
  run_phase.done();
  SWEEP_OBS_COUNTER_ADD("engine.slot.runs", 1);
  SWEEP_OBS_COUNTER_ADD("engine.slot.scan_words", scan_words);
  SWEEP_OBS_COUNTER_ADD("engine.pops", done);
  SWEEP_OBS_COUNTER_ADD("engine.steps", now);
  if (now > 0) {
    SWEEP_OBS_OBSERVE("engine.occupancy",
                      static_cast<double>(done) /
                          (static_cast<double>(now) *
                           static_cast<double>(n_processors)));
    SWEEP_OBS_OBSERVE("engine.peak_active_procs",
                      static_cast<double>(peak_active));
  }
  return schedule;
}

void validate_inputs(std::size_t n, std::size_t total,
                     const Assignment& assignment, std::size_t n_processors,
                     const ListScheduleOptions& options, const char* who) {
  if (assignment.size() != n) {
    throw std::invalid_argument(std::string(who) +
                                ": assignment size != n_cells");
  }
  if (n_processors == 0) {
    throw std::invalid_argument(std::string(who) + ": need >= 1 processor");
  }
  for (ProcessorId p : assignment) {
    if (p >= n_processors) {
      throw std::invalid_argument(std::string(who) +
                                  ": assignment out of range");
    }
  }
  if (!options.priorities.empty() && options.priorities.size() != total) {
    throw std::invalid_argument(std::string(who) + ": priorities size != n*k");
  }
  if (!options.release_times.empty() &&
      options.release_times.size() != total) {
    throw std::invalid_argument(std::string(who) +
                                ": release_times size != n*k");
  }
}

}  // namespace

Schedule list_schedule(const dag::SweepInstance& instance,
                       const Assignment& assignment, std::size_t n_processors,
                       const ListScheduleOptions& options) {
  return list_schedule(instance.task_graph(), assignment, n_processors,
                       options);
}

Schedule list_schedule(const dag::TaskGraph& tg, const Assignment& assignment,
                       std::size_t n_processors,
                       const ListScheduleOptions& options) {
  SWEEP_OBS_SCOPE("core.list_schedule");
  validate_inputs(tg.n_cells(), tg.n_tasks(), assignment, n_processors,
                  options, "list_schedule");
  const bool gated =
      !options.release_times.empty() || options.cross_message_delay > 0;
  return gated ? run_slot_engine<true>(tg, assignment, n_processors, options)
               : run_slot_engine<false>(tg, assignment, n_processors, options);
}

Schedule list_schedule_reference(const dag::SweepInstance& instance,
                                 const Assignment& assignment,
                                 std::size_t n_processors,
                                 const ListScheduleOptions& options) {
  const std::size_t n = instance.n_cells();
  const std::size_t k = instance.n_directions();
  const std::size_t total = n * k;
  validate_inputs(n, total, assignment, n_processors, options,
                  "list_schedule");

  auto priority_of = [&](TaskId t) -> std::int64_t {
    return options.priorities.empty() ? 0 : options.priorities[t];
  };
  auto release_of = [&](TaskId t) -> TimeStep {
    return options.release_times.empty() ? 0 : options.release_times[t];
  };

  Schedule schedule(n, k, n_processors, assignment);

  // Remaining predecessor counts per task.
  std::vector<std::uint32_t> indegree(total);
  for (std::size_t i = 0; i < k; ++i) {
    const dag::SweepDag& g = instance.dag(i);
    for (dag::NodeId v = 0; v < n; ++v) {
      indegree[task_id(v, static_cast<DirectionId>(i), n)] =
          static_cast<std::uint32_t>(g.in_degree(v));
    }
  }

  // Per-processor ready min-heaps keyed by (priority, task id).
  using Entry = std::pair<std::int64_t, TaskId>;
  using MinHeap = std::priority_queue<Entry, std::vector<Entry>, std::greater<>>;
  std::vector<MinHeap> ready(n_processors);

  // Ready-but-not-yet-released tasks, keyed by release time.
  using Release = std::pair<TimeStep, TaskId>;
  std::priority_queue<Release, std::vector<Release>, std::greater<>> pending;

  // Earliest start induced by cross-processor predecessor messages.
  std::vector<TimeStep> earliest;
  if (options.cross_message_delay > 0) earliest.assign(total, 0);

  std::vector<char> active_flag(n_processors, 0);
  std::vector<ProcessorId> active;
  active.reserve(n_processors);

  auto enqueue_ready = [&](TaskId t, TimeStep now) {
    TimeStep release = release_of(t);
    if (!earliest.empty()) release = std::max(release, earliest[t]);
    if (release > now) {
      pending.push({release, t});
      return;
    }
    const ProcessorId p = schedule.processor_of(t);
    ready[p].push({priority_of(t), t});
    if (!active_flag[p]) {
      active_flag[p] = 1;
      active.push_back(p);
    }
  };

  for (TaskId t = 0; t < total; ++t) {
    if (indegree[t] == 0) enqueue_ready(t, 0);
  }

  std::size_t done = 0;
  std::vector<TaskId> finished;
  finished.reserve(n_processors);
  std::vector<ProcessorId> still_active;
  still_active.reserve(n_processors);

  TimeStep t = 0;
  while (done < total) {
    // Releases that have come due.
    while (!pending.empty() && pending.top().first <= t) {
      const TaskId task = pending.top().second;
      pending.pop();
      const ProcessorId p = schedule.processor_of(task);
      ready[p].push({priority_of(task), task});
      if (!active_flag[p]) {
        active_flag[p] = 1;
        active.push_back(p);
      }
    }
    if (active.empty()) {
      if (pending.empty()) {
        throw std::logic_error(
            "list_schedule: deadlock — instance DAG has a cycle");
      }
      t = pending.top().first;
      continue;
    }

    // Each active processor runs its best ready task this step.
    finished.clear();
    still_active.clear();
    for (ProcessorId p : active) {
      const TaskId task = ready[p].top().second;
      ready[p].pop();
      schedule.set_start(task, t);
      finished.push_back(task);
      if (ready[p].empty()) {
        active_flag[p] = 0;
      } else {
        still_active.push_back(p);
      }
    }
    active.swap(still_active);
    done += finished.size();

    // Newly ready successors become available from t+1 (or their release;
    // or t+1+c if the message must cross processors).
    for (TaskId task : finished) {
      const CellId v = task_cell(task, n);
      const DirectionId dir = task_direction(task, n);
      const dag::SweepDag& g = instance.dag(dir);
      const ProcessorId pv = schedule.processor_of(task);
      for (dag::NodeId w : g.successors(v)) {
        const TaskId succ = task_id(w, dir, n);
        if (!earliest.empty() && assignment[w] != pv) {
          earliest[succ] = std::max(
              earliest[succ], t + 1 + options.cross_message_delay);
        }
        if (--indegree[succ] == 0) enqueue_ready(succ, t + 1);
      }
    }
    ++t;
  }
  return schedule;
}

std::vector<TimeStep> greedy_union_schedule(const dag::SweepInstance& instance,
                                            std::size_t n_processors,
                                            std::size_t* makespan) {
  if (n_processors == 0) {
    throw std::invalid_argument("greedy_union_schedule: need >= 1 processor");
  }
  const dag::TaskGraph& tg = instance.task_graph();
  const std::size_t total = tg.n_tasks();

  std::vector<TimeStep> step(total, kUnscheduled);
  std::vector<std::uint32_t> indegree(tg.indegrees().begin(),
                                      tg.indegrees().end());
  std::vector<Task32> frontier;
  for (Task32 t = 0; t < total; ++t) {
    if (indegree[t] == 0) frontier.push_back(t);
  }

  std::size_t done = 0;
  TimeStep now = 0;
  std::vector<Task32> next_frontier;
  while (done < total) {
    if (frontier.empty()) {
      throw std::logic_error("greedy_union_schedule: instance DAG has a cycle");
    }
    // Run up to m tasks from the frontier; the overflow stays ready.
    const std::size_t run = std::min(frontier.size(), n_processors);
    next_frontier.assign(frontier.begin() + static_cast<std::ptrdiff_t>(run),
                         frontier.end());
    for (std::size_t i = 0; i < run; ++i) {
      const Task32 task = frontier[i];
      step[task] = now;
      for (Task32 succ : tg.successors(task)) {
        if (--indegree[succ] == 0) next_frontier.push_back(succ);
      }
    }
    done += run;
    frontier.swap(next_frontier);
    ++now;
  }
  if (makespan != nullptr) *makespan = now;
  return step;
}

}  // namespace sweep::core
