// Tests for the HDR-style latency histogram (src/obs/latency_histogram):
// bucket-map invariants, quantiles against a sorted-reference oracle
// (within the documented 2^-5 relative error bound), exact shard-merge
// identity across threads, snapshot merging, corner cases
// (empty/one-sample/saturated), runtime gating, and reset. The same file
// passes under the obs-off build, where the macro assertions flip to the
// compiled-out contract.

#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace sweep::obs {
namespace {

class HistogramTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::instance().reset();
    set_metrics_enabled(true);
  }
  void TearDown() override {
    set_metrics_enabled(false);
    MetricsRegistry::instance().reset();
  }
};

const HistogramSnapshot* find_hist(const MetricsSnapshot& snap,
                                   const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Bucket map invariants (pure functions, no registry).

TEST(HistBucketMap, ExactBelowSubBucketRange) {
  for (std::uint64_t v = 0; v < detail::kHistSubBuckets; ++v) {
    EXPECT_EQ(detail::hist_bucket(v), v);
    EXPECT_EQ(detail::hist_bucket_lower(v), v);
    EXPECT_EQ(detail::hist_bucket_mid(v), v);  // exact: midpoint = value
  }
}

TEST(HistBucketMap, MonotoneAndSelfConsistent) {
  // bucket() must be monotone in the value, lower() must invert it on
  // bucket edges, and every value must land inside its bucket's range.
  util::Rng rng(7);
  std::size_t prev_bucket = 0;
  std::uint64_t prev_value = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t value = rng() >> (rng() % 40);
    const std::size_t b = detail::hist_bucket(value);
    ASSERT_LT(b, detail::kHistBuckets);
    if (value <= detail::kHistMaxValue) {
      EXPECT_LE(detail::hist_bucket_lower(b), value);
      if (b + 1 < detail::kHistBuckets) {
        EXPECT_LT(value, detail::hist_bucket_lower(b + 1));
      }
    }
    if (value >= prev_value) {
      EXPECT_GE(b, prev_bucket);
    }
    prev_bucket = b;
    prev_value = value;
  }
  for (std::size_t b = 0; b < detail::kHistBuckets; ++b) {
    EXPECT_EQ(detail::hist_bucket(detail::hist_bucket_lower(b)), b);
    EXPECT_EQ(detail::hist_bucket(detail::hist_bucket_mid(b)), b);
    EXPECT_GE(detail::hist_bucket_mid(b), detail::hist_bucket_lower(b));
  }
}

TEST(HistBucketMap, OverflowClampsToTopBucket) {
  EXPECT_EQ(detail::hist_bucket(detail::kHistMaxValue),
            detail::kHistBuckets - 1);
  EXPECT_EQ(detail::hist_bucket(detail::kHistMaxValue + 1),
            detail::kHistBuckets - 1);
  EXPECT_EQ(detail::hist_bucket(~0ull), detail::kHistBuckets - 1);
}

// ---------------------------------------------------------------------------
// Quantiles vs a sorted-reference oracle.

TEST_F(HistogramTest, QuantilesMatchSortedReferenceWithinBound) {
#if !defined(SWEEP_OBS_DISABLE)
  auto hist = MetricsRegistry::instance().latency_histogram("test.oracle");
  util::Rng rng(42);
  std::vector<std::uint64_t> samples;
  samples.reserve(50000);
  for (int i = 0; i < 50000; ++i) {
    // Log-uniform-ish spread over ~9 decades, the shape of real latencies.
    const std::uint64_t v = rng() >> (rng() % 50);
    samples.push_back(v > detail::kHistMaxValue ? detail::kHistMaxValue : v);
    hist.record(v);
  }
  std::sort(samples.begin(), samples.end());

  const auto snap = MetricsRegistry::instance().snapshot();
  const HistogramSnapshot* h = find_hist(snap, "test.oracle");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, samples.size());

  for (const double q : {0.0, 0.01, 0.10, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    const std::size_t rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(q * static_cast<double>(samples.size()))));
    const std::uint64_t reference = samples[rank - 1];
    const std::uint64_t estimate = h->quantile(q);
    // Documented bound: 2^-kHistSubBits relative error (midpoint
    // representative); plus one count of slack for the exact small range.
    const double tolerance =
        std::max(1.0, static_cast<double>(reference) / 32.0);
    EXPECT_NEAR(static_cast<double>(estimate),
                static_cast<double>(reference), tolerance)
        << "q=" << q;
  }
  // max_estimate is an upper bound on the true max, within one bucket.
  EXPECT_GE(h->max_estimate(), samples.back());
  EXPECT_LE(static_cast<double>(h->max_estimate()),
            static_cast<double>(samples.back()) * 1.07 + 1.0);
#endif
}

// ---------------------------------------------------------------------------
// Shard-merge identity: multi-threaded recording must produce exactly the
// same buckets as single-threaded recording of the same multiset.

TEST_F(HistogramTest, ThreadShardsMergeExactly) {
#if !defined(SWEEP_OBS_DISABLE)
  auto single = MetricsRegistry::instance().latency_histogram("test.single");
  auto sharded = MetricsRegistry::instance().latency_histogram("test.sharded");

  constexpr std::size_t kSamples = 20000;
  std::vector<std::uint64_t> values(kSamples);
  util::Rng rng(99);
  for (auto& v : values) v = rng() >> (rng() % 45);

  for (const std::uint64_t v : values) single.record(v);
  util::parallel_for(
      kSamples, [&](std::size_t i) { sharded.record(values[i]); }, 0);

  const auto snap = MetricsRegistry::instance().snapshot();
  const HistogramSnapshot* a = find_hist(snap, "test.single");
  const HistogramSnapshot* b = find_hist(snap, "test.sharded");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->count, kSamples);
  EXPECT_EQ(b->count, kSamples);
  EXPECT_EQ(a->sum, b->sum);
  EXPECT_EQ(a->buckets, b->buckets);  // exact bucket-for-bucket identity
#endif
}

// ---------------------------------------------------------------------------
// Corners.

TEST_F(HistogramTest, EmptyHistogramIsAllZeros) {
#if !defined(SWEEP_OBS_DISABLE)
  (void)MetricsRegistry::instance().latency_histogram("test.empty");
  const auto snap = MetricsRegistry::instance().snapshot();
  const HistogramSnapshot* h = find_hist(snap, "test.empty");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0u);
  EXPECT_EQ(h->sum, 0u);
  EXPECT_DOUBLE_EQ(h->mean(), 0.0);
  EXPECT_EQ(h->quantile(0.5), 0u);
  EXPECT_EQ(h->quantile(1.0), 0u);
  EXPECT_EQ(h->max_estimate(), 0u);
#endif
}

TEST_F(HistogramTest, OneSampleDominatesEveryQuantile) {
#if !defined(SWEEP_OBS_DISABLE)
  auto hist = MetricsRegistry::instance().latency_histogram("test.one");
  hist.record(12345);
  const auto snap = MetricsRegistry::instance().snapshot();
  const HistogramSnapshot* h = find_hist(snap, "test.one");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(h->sum, 12345u);
  const std::uint64_t representative =
      detail::hist_bucket_mid(detail::hist_bucket(12345));
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h->quantile(q), representative);
  }
#endif
}

TEST_F(HistogramTest, SaturatedValuesClampIntoTopBucket) {
#if !defined(SWEEP_OBS_DISABLE)
  auto hist = MetricsRegistry::instance().latency_histogram("test.saturated");
  hist.record(~0ull);                       // clamps
  hist.record(detail::kHistMaxValue + 1);   // clamps
  hist.record(detail::kHistMaxValue);       // top bucket, no clamp
  const auto snap = MetricsRegistry::instance().snapshot();
  const HistogramSnapshot* h = find_hist(snap, "test.saturated");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  // Sum accumulates the clamped values, so it stays bounded.
  EXPECT_EQ(h->sum, 3 * detail::kHistMaxValue);
  EXPECT_EQ(h->buckets.back(), 3u);
  EXPECT_EQ(h->max_estimate(), detail::kHistMaxValue);
  EXPECT_EQ(h->quantile(0.5), detail::hist_bucket_mid(detail::kHistBuckets - 1));
#endif
}

// ---------------------------------------------------------------------------
// Snapshot merge.

TEST_F(HistogramTest, SnapshotMergeEqualsCombinedRecording) {
#if !defined(SWEEP_OBS_DISABLE)
  auto part_a = MetricsRegistry::instance().latency_histogram("test.part_a");
  auto part_b = MetricsRegistry::instance().latency_histogram("test.part_b");
  auto whole = MetricsRegistry::instance().latency_histogram("test.whole");
  util::Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t v = rng() >> (rng() % 40);
    (i % 2 == 0 ? part_a : part_b).record(v);
    whole.record(v);
  }
  const auto snap = MetricsRegistry::instance().snapshot();
  HistogramSnapshot merged = *find_hist(snap, "test.part_a");
  merged.merge(*find_hist(snap, "test.part_b"));
  const HistogramSnapshot* reference = find_hist(snap, "test.whole");
  ASSERT_NE(reference, nullptr);
  EXPECT_EQ(merged.count, reference->count);
  EXPECT_EQ(merged.sum, reference->sum);
  EXPECT_EQ(merged.buckets, reference->buckets);
#endif
}

TEST_F(HistogramTest, MergeRejectsLayoutMismatch) {
#if !defined(SWEEP_OBS_DISABLE)
  HistogramSnapshot a;
  a.buckets.assign(detail::kHistBuckets, 0);
  HistogramSnapshot truncated;
  truncated.buckets.assign(detail::kHistBuckets - 1, 0);
  EXPECT_THROW(a.merge(truncated), std::invalid_argument);
#endif
}

// ---------------------------------------------------------------------------
// Gating and reset.

TEST_F(HistogramTest, DisabledMacroRecordsNothing) {
  set_metrics_enabled(false);
  SWEEP_OBS_HIST_RECORD("test.gated_hist", 1000);
  SWEEP_OBS_GAUGE_SET("test.gated_gauge", 7);
  const auto snap = MetricsRegistry::instance().snapshot();
  EXPECT_EQ(find_hist(snap, "test.gated_hist"), nullptr);
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_NE(name, "test.gated_gauge");
  }
}

TEST_F(HistogramTest, MacroRecordsWhenArmed) {
  SWEEP_OBS_HIST_RECORD("test.armed_hist", 1000);
  SWEEP_OBS_GAUGE_ADD("test.armed_gauge", 3);
  SWEEP_OBS_GAUGE_ADD("test.armed_gauge", -1);
  const auto snap = MetricsRegistry::instance().snapshot();
#if defined(SWEEP_OBS_DISABLE)
  // Compiled out: the macros above must vanish entirely.
  EXPECT_EQ(find_hist(snap, "test.armed_hist"), nullptr);
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
#else
  const HistogramSnapshot* h = find_hist(snap, "test.armed_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  bool found_gauge = false;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "test.armed_gauge") {
      found_gauge = true;
      EXPECT_EQ(value, 2);
    }
  }
  EXPECT_TRUE(found_gauge);
#endif
}

TEST_F(HistogramTest, ResetZeroesHistogramsAndGauges) {
#if !defined(SWEEP_OBS_DISABLE)
  auto hist = MetricsRegistry::instance().latency_histogram("test.reset");
  auto gauge = MetricsRegistry::instance().gauge("test.reset_gauge");
  hist.record(500);
  gauge.set(9);
  MetricsRegistry::instance().reset();
  const auto snap = MetricsRegistry::instance().snapshot();
  const HistogramSnapshot* h = find_hist(snap, "test.reset");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0u);
  EXPECT_EQ(h->sum, 0u);
  for (const auto& [name, value] : snap.gauges) {
    if (name == "test.reset_gauge") {
      EXPECT_EQ(value, 0);
    }
  }
  // The handle survives a reset and keeps recording.
  hist.record(700);
  const auto snap2 = MetricsRegistry::instance().snapshot();
  EXPECT_EQ(find_hist(snap2, "test.reset")->count, 1u);
#endif
}

TEST_F(HistogramTest, RegistrationIsIdempotent) {
#if !defined(SWEEP_OBS_DISABLE)
  auto a = MetricsRegistry::instance().latency_histogram("test.same");
  auto b = MetricsRegistry::instance().latency_histogram("test.same");
  a.record(100);
  b.record(200);
  const auto snap = MetricsRegistry::instance().snapshot();
  const HistogramSnapshot* h = find_hist(snap, "test.same");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->sum, 300u);
#endif
}

}  // namespace
}  // namespace sweep::obs
