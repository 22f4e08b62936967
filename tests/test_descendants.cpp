#include "sweep/descendants.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sweep/random_dag.hpp"
#include "util/thread_pool.hpp"
#include "test_helpers.hpp"

namespace sweep::dag {
namespace {

TEST(ExactDescendants, HandcraftedDag) {
  // 0 -> {1,2}, 1 -> 3, 2 -> 3: desc(0)=3, desc(1)=1, desc(2)=1, desc(3)=0.
  const SweepDag g = test::make_dag(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const auto counts = exact_descendant_counts(g);
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 0u);
}

TEST(ExactDescendants, SharedDescendantsNotDoubleCounted) {
  // Diamond into a long tail: naive child-sum would overcount the tail.
  const SweepDag g = test::make_dag(
      6, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}});
  const auto counts = exact_descendant_counts(g);
  EXPECT_EQ(counts[0], 5u);
  EXPECT_EQ(counts[1], 3u);
  EXPECT_EQ(counts[2], 3u);
  EXPECT_EQ(counts[3], 2u);
}

TEST(ExactDescendants, Chain) {
  util::Rng rng(1);
  const SweepDag g = chain_dag(20, rng);
  const auto counts = exact_descendant_counts(g);
  std::vector<std::uint64_t> sorted(counts);
  std::sort(sorted.begin(), sorted.end());
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(ExactDescendants, RefusesHugeGraphs) {
  const SweepDag g = test::make_dag(100, {{0, 1}});
  EXPECT_THROW(exact_descendant_counts(g, 50), std::invalid_argument);
  EXPECT_THROW(exact_descendant_counts_reference(g, 50), std::invalid_argument);
}

TEST(ExactDescendants, TiledMatchesReferenceOnRandomDags) {
  // Node counts straddle the strip width (kTileWords * 64 = 512 columns)
  // and the 64-bit word width: below/at/past one word, below/at/past one
  // strip, and a multi-strip graph not a multiple of either.
  for (const std::size_t n : {1u, 63u, 64u, 65u, 511u, 512u, 513u, 1200u}) {
    util::Rng rng(n);
    const SweepDag g =
        random_layered_dag(n, std::max<std::size_t>(n / 20, 2), 2.5, rng);
    EXPECT_EQ(exact_descendant_counts(g), exact_descendant_counts_reference(g))
        << "n=" << n;
  }
}

TEST(ExactDescendants, StripParallelMatchesReferenceForAnyJobs) {
  // Node counts straddle the strip width (512 ranks): empty, one node,
  // below/at/past one strip, and multi-strip graphs that are not a
  // multiple of it. jobs = 0 is the full pool width.
  for (const std::size_t n : {0u, 1u, 511u, 512u, 513u, 1500u, 5000u}) {
    util::Rng rng(n + 7);
    const SweepDag g =
        n == 0 ? test::make_dag(0, {})
               : random_layered_dag(n, std::max<std::size_t>(n / 20, 2), 2.5,
                                    rng);
    const auto want = exact_descendant_counts_reference(g);
    for (const std::size_t jobs : {1u, 2u, 0u}) {
      EXPECT_EQ(exact_descendant_counts(g, 1u << 14, nullptr, jobs), want)
          << "n=" << n << " jobs=" << jobs;
    }
  }
}

/// A path through n nodes: ids ascend along it (already topological) or,
/// with `reversed`, descend (anti-topological, so the rank relabelling
/// is the reversal).
SweepDag labelled_chain(std::size_t n, bool reversed) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const auto a = static_cast<NodeId>(i);
    const auto b = static_cast<NodeId>(i + 1);
    edges.push_back(reversed ? std::pair{b, a} : std::pair{a, b});
  }
  return test::make_dag(n, std::move(edges));
}

TEST(ExactDescendants, LongChainsInEitherLabelling) {
  // A chain makes every strip's triangle as deep as it gets: the source
  // reaches all n - 1 other nodes across every strip.
  constexpr std::size_t kN = 3000;
  for (const bool reversed : {false, true}) {
    const SweepDag g = labelled_chain(kN, reversed);
    const auto want = exact_descendant_counts_reference(g);
    for (std::size_t v = 0; v < kN; ++v) {
      ASSERT_EQ(want[v], reversed ? v : kN - 1 - v) << "v=" << v;
    }
    for (const std::size_t jobs : {1u, 2u, 0u}) {
      EXPECT_EQ(exact_descendant_counts(g, 1u << 14, nullptr, jobs), want)
          << "reversed=" << reversed << " jobs=" << jobs;
    }
  }
}

TEST(ExactDescendants, TiledStatsReportBoundedScratch) {
  // Each worker's working set is kTileWords words (one cache line) per
  // node, reused across its strips: n * tile_width / 8 = 64n bytes,
  // independent of the strip count (DESIGN.md §11). The strips are spread
  // over at most min(executors, strips) workers.
  util::Rng rng(4);
  const SweepDag g = random_layered_dag(1500, 12, 2.0, rng);
  const std::size_t strips = (1500 + kTileWords * 64 - 1) / (kTileWords * 64);
  const std::size_t pool_width = util::ThreadPool::global().size() + 1;
  for (const std::size_t jobs : {1u, 2u, 0u}) {
    TiledCountStats stats;
    const auto tiled = exact_descendant_counts(g, 1u << 14, &stats, jobs);
    EXPECT_EQ(stats.strips, strips);
    EXPECT_GE(stats.strips, 2u);  // actually exercises strip reuse
    EXPECT_EQ(stats.scratch_bytes_per_worker,
              1500 * kTileWords * sizeof(std::uint64_t));
    EXPECT_GE(stats.workers, 1u);
    EXPECT_LE(stats.workers,
              std::min(jobs == 0 ? pool_width : jobs, strips));
    EXPECT_EQ(tiled, exact_descendant_counts_reference(g));
  }
}

TEST(ExactDescendants, TiledEmptyDag) {
  const SweepDag g = test::make_dag(0, {});
  TiledCountStats stats;
  EXPECT_TRUE(exact_descendant_counts(g, 1u << 14, &stats).empty());
  EXPECT_EQ(stats.strips, 0u);
  EXPECT_EQ(stats.workers, 0u);
}

TEST(EstimatedDescendants, RejectsTooFewRounds) {
  const SweepDag g = test::make_dag(3, {{0, 1}});
  util::Rng rng(2);
  EXPECT_THROW(estimated_descendant_counts(g, rng, 1), std::invalid_argument);
}

TEST(EstimatedDescendants, CloseToExactOnRandomDags) {
  util::Rng rng(3);
  const SweepDag g = random_layered_dag(600, 20, 2.5, rng);
  const auto exact = exact_descendant_counts(g);
  // Within one labeling run the errors of overlapping reachable sets are
  // strongly correlated, so average several independent estimator runs
  // before comparing per-node.
  std::vector<double> estimated(g.n_nodes(), 0.0);
  constexpr int kRuns = 4;
  for (int run = 0; run < kRuns; ++run) {
    util::Rng est_rng(100 + static_cast<std::uint64_t>(run));
    const auto one = estimated_descendant_counts(g, est_rng, 48);
    for (std::size_t v = 0; v < g.n_nodes(); ++v) estimated[v] += one[v] / kRuns;
  }
  for (std::size_t v = 0; v < g.n_nodes(); ++v) {
    const double truth = static_cast<double>(exact[v]);
    if (truth >= 20.0) {
      EXPECT_NEAR(estimated[v], truth, truth * 0.35) << "node " << v;
    } else {
      EXPECT_LE(estimated[v], 60.0) << "node " << v;
    }
  }
}

TEST(EstimatedDescendants, PreservesCoarseRanking) {
  // Spearman-style check: top-descendant nodes by estimate should be
  // mostly the true top nodes.
  util::Rng rng(5);
  const SweepDag g = random_layered_dag(400, 15, 2.0, rng);
  const auto exact = exact_descendant_counts(g);
  util::Rng est_rng(6);
  const auto estimated = estimated_descendant_counts(g, est_rng, 32);

  auto top_decile = [&](auto&& values) {
    std::vector<std::size_t> ids(g.n_nodes());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
      return values[a] > values[b];
    });
    ids.resize(g.n_nodes() / 10);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  const auto true_top = top_decile(exact);
  const auto est_top = top_decile(estimated);
  std::vector<std::size_t> overlap;
  std::set_intersection(true_top.begin(), true_top.end(), est_top.begin(),
                        est_top.end(), std::back_inserter(overlap));
  EXPECT_GE(overlap.size(), true_top.size() / 2);
}

TEST(DescendantCounts, AdaptiveSwitchesImplementations) {
  util::Rng rng(7);
  const SweepDag small = random_layered_dag(100, 10, 2.0, rng);
  util::Rng rng2(8);
  const auto adaptive = descendant_counts(small, rng2);
  const auto exact = exact_descendant_counts(small);
  for (std::size_t v = 0; v < small.n_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(adaptive[v], static_cast<double>(exact[v]));
  }
  // Force the estimator path with a tiny threshold.
  util::Rng rng3(9);
  const auto estimated = descendant_counts(small, rng3, /*exact_threshold=*/10);
  bool any_nonzero = false;
  for (double c : estimated) any_nonzero = any_nonzero || c > 0.0;
  EXPECT_TRUE(any_nonzero);
}

}  // namespace
}  // namespace sweep::dag
