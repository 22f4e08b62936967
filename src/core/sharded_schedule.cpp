#include "core/sharded_schedule.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/arena.hpp"
#include "util/numa.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/steal_deque.hpp"
#include "util/thread_pool.hpp"

// The sharded superstep engine (DESIGN.md §12, kernels §16).
//
// The serial slot-map engine (list_scheduler.cpp) already reduces a
// timestep to "for each active processor, pop the lowest live slot, then
// decrement successors". This file distributes exactly that over W worker
// shards while keeping the output bit-identical to list_schedule_reference
// for every W:
//
//   - Every simulated processor belongs to one shard (static contiguous
//     map). A processor's ready state — its padded slot region's indegree
//     words, bitmap words, hint and queued counters — is only ever touched
//     by (a) the one thread that pops it this step (pop phase) or (b) its
//     owner shard (resolve phase); the phases are fork/join-separated, so
//     no atomics guard any per-task or per-processor state.
//   - Pop phase: each worker drains its own Chase–Lev deque of active
//     processors, then steals from the other shards, so skewed shards
//     (tail levels where only a few processors are active) cannot idle the
//     rest of the machine. Which thread pops a processor affects only load
//     balance: the popped task is the processor's (priority, task-id)
//     minimum either way. Completions do not touch successor state
//     directly; the popper walks each finished task's contiguous CSR
//     successor run — software-prefetching the row and the next edge's
//     slot lookup one iteration ahead — and buffers each successor's
//     *slot* into per-(worker, destination-shard) outboxes.
//   - Resolve phase: each shard concatenates the W outboxes addressed to
//     it into one batch and retires it with the batched decrement kernel
//     (util/simd.hpp): sort, collapse duplicate runs, then SIMD
//     gather/subtract/compare over its own slot-indexed indegree lane.
//     The scatter stays shard-private, which is what makes the whole step
//     lock-free, and every slot whose indegree reached zero enters the
//     bitmap via push_slot. All of these updates commute (decrements, bit
//     sets, min-hints), so neither the arrival order nor the kernel's
//     sorted retirement order — the only things stealing and batching
//     perturb — can change the outcome. The shard then rebuilds its deque
//     for the next step in fixed processor order.
//
// Memory layout and placement: scheduling state lives in one 64-byte-
// aligned structure-of-arrays arena. The indegree lane is indexed by
// *slot*, not task id, so a shard's entire mutable hot state — indegree
// region, bitmap region, hint/queued lanes — is one contiguous block that
// only its owner writes. Each worker first-touches its own shard's
// regions (and its outbox buffers) at build time, before any cross-shard
// write, so a NUMA kernel backs every region with worker-local pages;
// util::numa records the node count (no binding — first-touch placement
// needs neither libnuma nor hwloc). Shard count is pinned by `jobs` (the
// determinism anchor), while the number of OS threads driving the phases
// is capped at the machine's executor count — oversubscribing a small
// machine would only add scheduling noise, and which executor runs which
// shard body never affects the schedule.

namespace sweep::core::detail {
namespace {

using Task32 = dag::TaskGraph::Task;

/// Padded slot-space cap: task_at + the slot-indexed indegree lane are one
/// u32 each per slot, so 2^26 slots caps them at 256 MiB each. Beyond this
/// (pathologically skewed assignments) the caller falls back to the serial
/// heap engine, as the serial slot engine does at its own cap.
constexpr std::size_t kMaxShardedSlots = 1u << 26;

/// Per-shard worker state. alignas(64): pops/active/steals are written by
/// one thread per phase but sit in an indexed array; padding keeps a
/// worker's counters off its neighbours' cache lines.
struct alignas(64) WorkerState {
  util::StealDeque<std::uint32_t> deque;        // active procs this step
  std::vector<std::vector<std::uint32_t>> outbox;  // [dest shard] slot ids
  std::vector<std::size_t> outbox_cap;          // capacity at run start
  std::vector<std::uint32_t> resolve_batch;     // concatenated inboxes
  std::vector<std::uint32_t> ready_slots;       // kernel zero output
  util::simd::BatchScratch batch_scratch;       // kernel sort/collapse
  util::simd::BatchStats simd_stats;            // batches/fallbacks this run
  std::uint32_t proc_lo = 0;                    // owned processor range
  std::uint32_t proc_hi = 0;
  std::uint32_t pops = 0;                       // pops this step
  std::uint32_t active = 0;                     // active procs after resolve
  std::uint64_t steals = 0;                     // cumulative
  std::uint64_t queue_depth = 0;                // Σ queued over owned procs
  std::uint64_t outbox_growths = 0;             // reallocations this run
  // Largest resolve batch this shard has retired, kept across runs. Every
  // outbox addressed to the shard is reserved to it at run start.
  std::size_t inbox_peak = 0;
};

/// Reused per-thread scratch: the SoA arena plus the containers whose
/// capacity should survive across calls (trial fan-outs and fuzz campaigns
/// schedule thousands of instances per thread).
struct ShardedScratch {
  util::Arena arena;
  // unique_ptr: WorkerState holds atomics (non-movable), so the vector
  // could never resize holding them by value.
  std::vector<std::unique_ptr<WorkerState>> workers;
  std::vector<std::uint32_t> hist;  // [block][proc * width + bucket]
  std::vector<std::uint32_t> shard_of;  // processor -> shard
};

ShardedScratch& sharded_scratch() {
  thread_local ShardedScratch scratch;
  return scratch;
}

}  // namespace

std::size_t resolve_engine_workers(std::size_t jobs,
                                   std::size_t n_processors) {
  std::size_t w = jobs != 0 ? jobs : util::ThreadPool::global().size() + 1;
  w = std::min(w, n_processors);
  return std::max<std::size_t>(w, 1);
}

std::optional<Schedule> sharded_list_schedule(
    const dag::TaskGraph& tg, const Assignment& assignment,
    std::size_t n_processors, std::span<const std::int64_t> priorities,
    std::int64_t min_priority, std::size_t width, std::size_t jobs) {
  SWEEP_OBS_SPAN("engine.sharded.run");
  const std::size_t total = tg.n_tasks();
  const std::size_t m = n_processors;
  const std::size_t W = resolve_engine_workers(jobs, m);
  // OS threads driving the phases: shard state stays W-way (bit-identity
  // anchor), but running more phase bodies concurrently than the machine
  // has cores only adds queueing overhead — the global pool keeps at least
  // one worker even on a single-core host, so clamp by the hardware too.
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t executors =
      std::min({W, util::ThreadPool::global().size() + 1, hw});
  const std::uint32_t* cell = tg.cells().data();
  const std::uint32_t* offsets = tg.offsets().data();
  const Task32* targets = tg.targets().data();
  const std::int64_t* priority =
      priorities.empty() ? nullptr : priorities.data();
  assert(width >= 1);

  obs::PhaseSpan build_phase("engine.sharded.build");
  ShardedScratch& scratch = sharded_scratch();

  // ---- Pass 1: per-block (processor, bucket) histograms. Fixed block
  // boundaries make the layered slot cursors — and hence the whole slot
  // map — independent of how parallel_for interleaves the blocks.
  const std::size_t n_blocks = W;
  auto block_lo = [&](std::size_t i) { return i * total / n_blocks; };
  scratch.hist.assign(n_blocks * m * width, 0);
  std::uint32_t* hist = scratch.hist.data();
  util::parallel_for(
      n_blocks,
      [&](std::size_t i) {
        std::uint32_t* h = hist + i * m * width;
        const std::size_t lo = block_lo(i);
        const std::size_t hi = block_lo(i + 1);
        for (std::size_t t = lo; t < hi; ++t) {
          const std::size_t p = assignment[cell[t]];
          const std::size_t b =
              priority != nullptr
                  ? static_cast<std::size_t>(priority[t] - min_priority)
                  : 0;
          ++h[p * width + b];
        }
      },
      executors);

  // Per-processor load and the padded region size (same power-of-two
  // layout as the serial slot engine: region base p << log2r, >= 1 bitmap
  // word per processor so no two processors share a word — and, because
  // the region size is a multiple of 64, no two *shards* share a bitmap
  // word either).
  std::size_t max_per_proc = 64;
  {
    for (std::size_t p = 0; p < m; ++p) {
      std::size_t load = 0;
      for (std::size_t i = 0; i < n_blocks; ++i) {
        const std::uint32_t* h = hist + i * m * width + p * width;
        for (std::size_t b = 0; b < width; ++b) load += h[b];
      }
      max_per_proc = std::max(max_per_proc, load);
    }
  }
  const auto log2r =
      static_cast<std::uint32_t>(std::bit_width(max_per_proc - 1));
  const std::size_t n_slots = m << log2r;
  if (n_slots > kMaxShardedSlots) return std::nullopt;

  // ---- SoA arena: every per-task / per-slot lane in one 64-byte-aligned
  // block. indeg_at is slot-indexed (see the header comment): a shard's
  // mutable state is the contiguous [proc_lo << log2r, proc_hi << log2r)
  // range of indeg_at + bitmap plus its hint/queued/load sub-ranges.
  util::Arena& arena = scratch.arena;
  arena.reserve(util::Arena::lane_bytes<std::uint32_t>(total) +
                util::Arena::lane_bytes<Task32>(n_slots) +
                util::Arena::lane_bytes<std::uint32_t>(n_slots) +
                util::Arena::lane_bytes<std::uint64_t>(n_slots / 64 + 1) +
                util::Arena::lane_bytes<std::uint32_t>(m) * 3);
  std::uint32_t* slot_of = arena.alloc<std::uint32_t>(total);
  Task32* task_at = arena.alloc<Task32>(n_slots);
  std::uint32_t* indeg_at = arena.alloc<std::uint32_t>(n_slots);
  std::uint64_t* bitmap = arena.alloc<std::uint64_t>(n_slots / 64 + 1);
  std::uint32_t* hint = arena.alloc<std::uint32_t>(m);
  std::uint32_t* queued = arena.alloc<std::uint32_t>(m);
  std::uint32_t* load = arena.alloc<std::uint32_t>(m);

  // ---- Pass 2: layered exclusive scan, in place. hist[block i] becomes
  // block i's next-free-slot cursor per (processor, bucket): slots are
  // ordered (processor, bucket, block, task id) = (processor, priority,
  // task id), the reference tie-break order, since task ids ascend within
  // a block and blocks are task-ordered.
  for (std::size_t p = 0; p < m; ++p) {
    auto acc = static_cast<std::uint32_t>(p << log2r);
    for (std::size_t b = 0; b < width; ++b) {
      for (std::size_t i = 0; i < n_blocks; ++i) {
        std::uint32_t& h = hist[i * m * width + p * width + b];
        const std::uint32_t count = h;
        h = acc;
        acc += count;
      }
    }
    load[p] = acc - static_cast<std::uint32_t>(p << log2r);
  }

  // ---- Shard map + worker state.
  scratch.shard_of.resize(m);
  std::uint32_t* shard_of = scratch.shard_of.data();
  while (scratch.workers.size() < W) {
    scratch.workers.push_back(std::make_unique<WorkerState>());
  }
  const std::unique_ptr<WorkerState>* workers = scratch.workers.data();
  for (std::size_t w = 0; w < W; ++w) {
    WorkerState& ws = *workers[w];
    ws.proc_lo = static_cast<std::uint32_t>(w * m / W);
    ws.proc_hi = static_cast<std::uint32_t>((w + 1) * m / W);
    for (std::uint32_t p = ws.proc_lo; p < ws.proc_hi; ++p) shard_of[p] = w;
    ws.outbox.resize(W);
    ws.outbox_cap.resize(W);
    ws.pops = 0;
    ws.active = 0;
    ws.steals = 0;
    ws.queue_depth = 0;
    ws.outbox_growths = 0;
    ws.simd_stats = {};
  }

  // ---- First-touch placement: each worker initializes its own shard's
  // indegree and bitmap regions (and zeroes its queued lane) before any
  // cross-shard write lands there, so the pages become worker-local on
  // NUMA kernels. Shard regions start at proc_lo << log2r and log2r >= 6,
  // so bitmap word ranges are shard-disjoint.
  util::parallel_for(
      W,
      [&](std::size_t w) {
        WorkerState& ws = *workers[w];
        // Stealing moves pops between executors, so how much one worker
        // pushes to shard d in a step varies from run to run; the step's
        // total for d does not. Reserving every outbox to d's peak total
        // makes outbox_growths count reallocations *within this run* that
        // are zero once the scratch has seen this shape, whichever
        // executor ran which processor.
        for (std::size_t d = 0; d < W; ++d) {
          ws.outbox[d].clear();
          ws.outbox[d].reserve(workers[d]->inbox_peak);
          ws.outbox_cap[d] = ws.outbox[d].capacity();
        }
        const std::size_t s_lo = static_cast<std::size_t>(ws.proc_lo)
                                 << log2r;
        const std::size_t s_hi = static_cast<std::size_t>(ws.proc_hi)
                                 << log2r;
        std::memset(indeg_at + s_lo, 0, (s_hi - s_lo) * sizeof(*indeg_at));
        std::memset(bitmap + s_lo / 64, 0, (s_hi - s_lo) / 64 * sizeof(*bitmap));
        std::memset(queued + ws.proc_lo, 0,
                    (ws.proc_hi - ws.proc_lo) * sizeof(*queued));
      },
      executors);
  bitmap[n_slots / 64] = 0;  // the scan sentinel word past the last region

  // ---- Pass 3: fill the lanes. Each block owns its cursor copy, so the
  // scatter into slot_of/task_at/indeg_at is write-disjoint across blocks.
  util::parallel_for(
      n_blocks,
      [&](std::size_t i) {
        std::uint32_t* h = hist + i * m * width;
        const std::size_t lo = block_lo(i);
        const std::size_t hi = block_lo(i + 1);
        const std::uint32_t* indeg_src = tg.indegrees().data();
        for (std::size_t t = lo; t < hi; ++t) {
          const auto p = static_cast<std::uint32_t>(assignment[cell[t]]);
          const std::size_t b =
              priority != nullptr
                  ? static_cast<std::size_t>(priority[t] - min_priority)
                  : 0;
          const std::uint32_t s = h[p * width + b]++;
          slot_of[t] = s;
          task_at[s] = static_cast<Task32>(t);
          indeg_at[s] = indeg_src[t];
        }
      },
      executors);

  Schedule schedule(tg.n_cells(), tg.n_directions(), m, assignment);

  // Pushes slot s of a processor owned by the calling shard.
  auto push_slot = [&](std::uint32_t s) {
    const std::uint32_t p = s >> log2r;
    bitmap[s >> 6] |= 1ull << (s & 63);
    if (queued[p] == 0 || s < hint[p]) hint[p] = s;
    ++queued[p];
  };

  // Rebuilds shard w's deque from its queued counters (fixed processor
  // order => deterministic deque contents) and publishes its active count
  // and aggregate queue depth.
  auto rebuild_deque = [&](WorkerState& ws) {
    ws.deque.reset(ws.proc_hi - ws.proc_lo);
    std::uint32_t active = 0;
    std::uint64_t depth = 0;
    for (std::uint32_t p = ws.proc_lo; p < ws.proc_hi; ++p) {
      if (queued[p] > 0) {
        ws.deque.push(p);
        ++active;
        depth += queued[p];
      }
    }
    ws.active = active;
    ws.queue_depth = depth;
  };

  // ---- Initial ready set: each shard scans its processors' populated
  // slot ranges (Σ load = n_tasks total work, shard-disjoint writes).
  util::parallel_for(
      W,
      [&](std::size_t w) {
        WorkerState& ws = *workers[w];
        for (std::uint32_t p = ws.proc_lo; p < ws.proc_hi; ++p) {
          const std::uint32_t base = p << log2r;
          for (std::uint32_t s = base; s < base + load[p]; ++s) {
            if (indeg_at[s] == 0) push_slot(s);
          }
        }
        rebuild_deque(ws);
      },
      executors);
  build_phase.done();
  obs::PhaseSpan run_phase("engine.sharded.steps");

  // ---- Superstep loop.
  std::size_t done = 0;
  std::size_t total_active = 0;
  std::uint64_t queue_depth_sum = 0;
  std::size_t peak_active = 0;
  for (std::size_t w = 0; w < W; ++w) {
    total_active += workers[w]->active;
    queue_depth_sum += workers[w]->queue_depth;
  }

  TimeStep now = 0;
  while (total_active > 0) {
    peak_active = std::max(peak_active, total_active);
    // Pop phase: drain own deque, then steal from the other shards.
    util::parallel_for(
        W,
        [&](std::size_t w) {
          WorkerState& ws = *workers[w];
          std::uint32_t pops = 0;
          std::uint64_t steals = 0;
          auto run_processor = [&](std::uint32_t p) {
            // Pop the processor's lowest live slot — its (priority, task
            // id) minimum, exactly the reference heap's choice.
            std::size_t word = hint[p] >> 6;
            std::uint64_t bits = bitmap[word] & (~0ull << (hint[p] & 63));
            while (bits == 0) bits = bitmap[++word];
            const auto s = static_cast<std::uint32_t>(
                (word << 6) + static_cast<std::uint32_t>(
                                  std::countr_zero(bits)));
            bitmap[word] &= ~(1ull << (s & 63));
            hint[p] = s;
            --queued[p];
            const Task32 task = task_at[s];
            schedule.set_start(task, now);
            ++pops;
            // Walk the finished task's contiguous CSR successor run into
            // the per-destination-shard outboxes, prefetching the row and
            // the next edge's slot lookup one iteration ahead.
            const std::uint32_t e_lo = offsets[task];
            const std::uint32_t e_hi = offsets[task + 1];
            util::simd::prefetch_read(targets + e_lo);
            for (std::uint32_t e = e_lo; e < e_hi; ++e) {
              if (e + 1 < e_hi) {
                util::simd::prefetch_read(slot_of + targets[e + 1]);
              }
              const std::uint32_t s2 = slot_of[targets[e]];
              ws.outbox[shard_of[s2 >> log2r]].push_back(s2);
            }
          };
          std::uint32_t p;
          while (ws.deque.take(&p)) run_processor(p);
          // Stealing only buys wall-clock when another executor could
          // otherwise idle; with the phase bodies serialized on a single
          // executor every deque is drained by its own body anyway, and
          // the Chase-Lev steal CAS per task is pure loss.
          if (executors > 1) {
            for (std::size_t d = 1; d < W; ++d) {
              util::StealDeque<std::uint32_t>& victim =
                  workers[(w + d) % W]->deque;
              while (victim.steal(&p)) {
                run_processor(p);
                ++steals;
              }
            }
          }
          for (std::size_t d = 0; d < W; ++d) {
            if (ws.outbox[d].capacity() > ws.outbox_cap[d]) {
              ++ws.outbox_growths;
              ws.outbox_cap[d] = ws.outbox[d].capacity();
            }
          }
          ws.pops = pops;
          ws.steals += steals;
        },
        executors);
    for (std::size_t w = 0; w < W; ++w) done += workers[w]->pops;

    // Resolve phase: each shard concatenates the outboxes addressed to it
    // and retires the batch with the SIMD decrement kernel over its own
    // slot-indexed indegree region; every slot that reached zero enters
    // the ready bitmap.
    util::parallel_for(
        W,
        [&](std::size_t w) {
          WorkerState& ws = *workers[w];
          std::vector<std::uint32_t>& batch = ws.resolve_batch;
          batch.clear();
          for (std::size_t src = 0; src < W; ++src) {
            std::vector<std::uint32_t>& box = workers[src]->outbox[w];
            batch.insert(batch.end(), box.begin(), box.end());
            box.clear();
          }
          ws.inbox_peak = std::max(ws.inbox_peak, batch.size());
          if (!batch.empty()) {
            if (ws.ready_slots.size() < batch.size()) {
              ws.ready_slots.resize(batch.size());
            }
            const std::size_t zeros = util::simd::decrement_to_zero(
                indeg_at, batch.data(), batch.size(), ws.ready_slots.data(),
                ws.batch_scratch, &ws.simd_stats);
            for (std::size_t i = 0; i < zeros; ++i) {
              push_slot(ws.ready_slots[i]);
            }
          }
          rebuild_deque(ws);
        },
        executors);
    total_active = 0;
    for (std::size_t w = 0; w < W; ++w) {
      total_active += workers[w]->active;
      queue_depth_sum += workers[w]->queue_depth;
    }
    ++now;
  }
  run_phase.done();
  if (done < total) {
    throw std::logic_error(
        "list_schedule: deadlock — instance DAG has a cycle");
  }

  std::uint64_t steals = 0;
  util::simd::BatchStats simd_stats;
  std::uint64_t outbox_growths = 0;
  for (std::size_t w = 0; w < W; ++w) {
    steals += workers[w]->steals;
    simd_stats += workers[w]->simd_stats;
    outbox_growths += workers[w]->outbox_growths;
  }
  SWEEP_OBS_COUNTER_ADD("engine.sharded.runs", 1);
  SWEEP_OBS_COUNTER_ADD("engine.sharded.steals", steals);
  SWEEP_OBS_COUNTER_ADD("engine.simd.batches", simd_stats.batches);
  SWEEP_OBS_COUNTER_ADD("engine.simd.fallbacks", simd_stats.fallbacks);
  SWEEP_OBS_COUNTER_ADD("engine.sharded.outbox_growths", outbox_growths);
  SWEEP_OBS_COUNTER_ADD("engine.pops", done);
  SWEEP_OBS_COUNTER_ADD("engine.steps", now);
  SWEEP_OBS_GAUGE_SET("engine.sharded.numa_nodes",
                      static_cast<std::int64_t>(util::numa::node_count()));
  SWEEP_OBS_OBSERVE("engine.sharded.workers", static_cast<double>(W));
  if (now > 0) {
    SWEEP_OBS_OBSERVE("engine.occupancy",
                      static_cast<double>(done) /
                          (static_cast<double>(now) * static_cast<double>(m)));
    SWEEP_OBS_OBSERVE("engine.sharded.queue_depth",
                      static_cast<double>(queue_depth_sum) /
                          static_cast<double>(now));
    SWEEP_OBS_OBSERVE("engine.peak_active_procs",
                      static_cast<double>(peak_active));
  }
  return schedule;
}

}  // namespace sweep::core::detail
