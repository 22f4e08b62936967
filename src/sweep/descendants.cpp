#include "sweep/descendants.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/parallel.hpp"

namespace sweep::dag {

std::vector<std::uint64_t> exact_descendant_counts(const SweepDag& dag,
                                                   std::size_t max_nodes,
                                                   TiledCountStats* stats,
                                                   std::size_t jobs) {
  const std::size_t n = dag.n_nodes();
  if (n > max_nodes) {
    throw std::invalid_argument(
        "exact_descendant_counts: DAG too large; use the estimator");
  }
  SWEEP_OBS_TIMER("descendants.exact_tiled");
  std::vector<std::uint64_t> counts(n, 0);
  constexpr std::size_t kTileColumns = kTileWords * 64;
  const std::size_t strips = (n + kTileColumns - 1) / kTileColumns;
  const std::size_t executors =
      jobs != 0 ? jobs : util::ThreadPool::global().size() + 1;
  const std::size_t workers = std::min(executors, strips);
  if (stats != nullptr) {
    stats->strips = strips;
    stats->workers = workers;
    stats->scratch_bytes_per_worker = n * kTileWords * sizeof(std::uint64_t);
  }
  if (n == 0) return counts;

  // Relabel by topological rank: every edge goes from a lower to a higher
  // rank, so rank r reaches only ranks >= r and the columns of strip
  // [a, a + kTileColumns) are reachable only from ranks below a +
  // kTileColumns. Each strip walks just that triangle, which halves the
  // word operations of a full n x strips sweep.
  const std::vector<NodeId> topo = dag.topological_order();
  std::vector<NodeId> rank(n);
  for (std::size_t r = 0; r < n; ++r) rank[topo[r]] = static_cast<NodeId>(r);
  std::vector<std::uint32_t> offsets(n + 1, 0);
  std::vector<NodeId> targets;
  targets.reserve(dag.n_edges());
  for (std::size_t r = 0; r < n; ++r) {
    for (NodeId s : dag.successors(topo[r])) targets.push_back(rank[s]);
    offsets[r + 1] = static_cast<std::uint32_t>(targets.size());
  }

  // Strips are independent, so they run in parallel. Each executor owns
  // one tile (one cache line of the strip per rank: 64n bytes) and one
  // partial-count array, and claims strips from a shared counter, so the
  // strips it sees ascend. The rows of ranks >= a + kTileColumns in its
  // tile were therefore never written and are still zero: the per-edge OR
  // below stays branch-free although it skips them.
  std::vector<std::vector<std::uint64_t>> partial(workers);
  std::atomic<std::size_t> next_strip{0};
  util::parallel_for(
      workers,
      [&](std::size_t w) {
        std::vector<std::uint64_t> tile;
        std::vector<std::uint64_t>& part = partial[w];
        for (;;) {
          const std::size_t strip =
              next_strip.fetch_add(1, std::memory_order_relaxed);
          if (strip >= strips) return;
          if (tile.empty()) {
            tile.assign(n * kTileWords, 0);
            part.assign(n, 0);
          }
          const std::size_t column_base = strip * kTileColumns;
          const std::size_t top = std::min(n, column_base + kTileColumns);
          for (std::size_t r = top; r-- > 0;) {
            std::uint64_t row[kTileWords] = {};
            const std::size_t local = r - column_base;
            if (local < kTileColumns) row[local / 64] = 1ull << (local % 64);
            for (std::uint32_t e = offsets[r]; e < offsets[r + 1]; ++e) {
              const std::uint64_t* srow =
                  tile.data() + static_cast<std::size_t>(targets[e]) * kTileWords;
              for (std::size_t j = 0; j < kTileWords; ++j) row[j] |= srow[j];
            }
            std::uint64_t popcount = 0;
            for (std::size_t j = 0; j < kTileWords; ++j) {
              tile[r * kTileWords + j] = row[j];
              popcount += static_cast<std::uint64_t>(std::popcount(row[j]));
            }
            part[r] += popcount;
          }
        }
      },
      workers);

  // Integer sums commute, so the counts do not depend on which executor
  // ran which strip.
  for (const std::vector<std::uint64_t>& part : partial) {
    if (part.empty()) continue;  // an executor that found no strip left
    for (std::size_t r = 0; r < n; ++r) counts[topo[r]] += part[r];
  }
  for (std::size_t v = 0; v < n; ++v) --counts[v];  // exclude v itself
  SWEEP_OBS_COUNTER_ADD("descendants.tiled.strips", strips);
  return counts;
}

std::vector<std::uint64_t> exact_descendant_counts_reference(
    const SweepDag& dag, std::size_t max_nodes) {
  const std::size_t n = dag.n_nodes();
  if (n > max_nodes) {
    throw std::invalid_argument(
        "exact_descendant_counts: DAG too large; use the estimator");
  }
  const std::size_t words = (n + 63) / 64;
  // reach[v] = bitset of nodes reachable from v (including v).
  std::vector<std::uint64_t> reach(n * words, 0);
  const std::vector<NodeId> topo = dag.topological_order();
  std::vector<std::uint64_t> counts(n, 0);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    std::uint64_t* row = reach.data() + static_cast<std::size_t>(v) * words;
    row[v / 64] |= 1ull << (v % 64);
    for (NodeId w : dag.successors(v)) {
      const std::uint64_t* wrow = reach.data() + static_cast<std::size_t>(w) * words;
      for (std::size_t i = 0; i < words; ++i) row[i] |= wrow[i];
    }
    std::uint64_t popcount = 0;
    for (std::size_t i = 0; i < words; ++i) {
      popcount += static_cast<std::uint64_t>(__builtin_popcountll(row[i]));
    }
    counts[v] = popcount - 1;  // exclude v itself
  }
  return counts;
}

std::vector<double> estimated_descendant_counts(const SweepDag& dag,
                                                util::Rng& rng,
                                                std::size_t rounds) {
  if (rounds < 2) {
    throw std::invalid_argument("estimated_descendant_counts: rounds must be >= 2");
  }
  const std::size_t n = dag.n_nodes();
  std::vector<double> min_sum(n, 0.0);
  std::vector<double> label(n);
  const std::vector<NodeId> topo = dag.topological_order();
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t v = 0; v < n; ++v) label[v] = rng.next_exponential(1.0);
    // Reverse topological order: min over self + successors' minima.
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const NodeId v = *it;
      double lo = label[v];
      for (NodeId w : dag.successors(v)) lo = std::min(lo, label[w]);
      label[v] = lo;
      min_sum[v] += lo;
    }
  }
  std::vector<double> counts(n);
  const double numer = static_cast<double>(rounds - 1);
  for (std::size_t v = 0; v < n; ++v) {
    // Estimator counts the reachable set including v; subtract 1 and clamp.
    const double reach = min_sum[v] > 0.0 ? numer / min_sum[v] : 1.0;
    counts[v] = std::max(0.0, reach - 1.0);
  }
  return counts;
}

std::vector<double> descendant_counts(const SweepDag& dag, util::Rng& rng,
                                      std::size_t exact_threshold) {
  if (dag.n_nodes() <= exact_threshold) {
    const auto exact = exact_descendant_counts(dag, exact_threshold);
    return {exact.begin(), exact.end()};
  }
  return estimated_descendant_counts(dag, rng);
}

std::vector<double> descendant_counts_reference(const SweepDag& dag,
                                                util::Rng& rng,
                                                std::size_t exact_threshold) {
  if (dag.n_nodes() <= exact_threshold) {
    const auto exact = exact_descendant_counts_reference(dag, exact_threshold);
    return {exact.begin(), exact.end()};
  }
  return estimated_descendant_counts(dag, rng);
}

}  // namespace sweep::dag
