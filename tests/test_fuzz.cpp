// Tests for the sweep_fuzz subsystem: fixed-seed campaign cleanliness and
// determinism, replay of the committed .sweepfuzz repros (each one is a bug
// the fuzzer caught — they must stay clean now that the bugs are fixed),
// shrinker determinism/convergence via the synthetic self-test oracle, and
// scenario/repro serialization round trips.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "fuzz/campaign.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/scenario.hpp"
#include "fuzz/shrink.hpp"
#include "util/rng.hpp"

namespace sweep::fuzz {
namespace {

TEST(FuzzCampaign, FixedSeedCampaignIsClean) {
  CampaignOptions options;
  options.trials = 40;
  options.seed = 1;
  options.jobs = 2;
  options.shrink = false;
  const CampaignResult result = run_campaign(options);
  EXPECT_EQ(result.trials, 40u);
  EXPECT_GT(result.checks, 40u);  // several oracles per trial
  EXPECT_TRUE(result.ok()) << (result.failures.empty()
                                   ? std::string()
                                   : result.failures.front().violation.oracle +
                                         ": " +
                                         result.failures.front().violation.message);
}

TEST(FuzzCampaign, DeterministicAcrossJobCounts) {
  CampaignOptions serial;
  serial.trials = 24;
  serial.seed = 99;
  serial.jobs = 1;
  serial.shrink = false;
  CampaignOptions threaded = serial;
  threaded.jobs = 3;
  const CampaignResult a = run_campaign(serial);
  const CampaignResult b = run_campaign(threaded);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.failures.size(), b.failures.size());
  // The per-trial scenarios themselves are a function of (seed, trial) only.
  for (std::size_t trial = 0; trial < serial.trials; ++trial) {
    util::Rng r1(serial.seed + trial * 1000003ULL);
    util::Rng r2(serial.seed + trial * 1000003ULL);
    EXPECT_EQ(sample_scenario(r1), sample_scenario(r2));
  }
}

TEST(FuzzRepro, CommittedReprosStayClean) {
  // Each committed repro is a minimized scenario that failed before its bug
  // was fixed: out-of-range assignments corrupting execute_layered, schedule
  // files loaded without validation, CLI values silently parsing to zero,
  // the n=0 TaskGraph::n_directions collapse found by the fuzzer itself,
  // instance files whose claimed edge count pre-allocated unbounded memory,
  // artifact images with overflowing section offsets, and wire frames that
  // decoded past their span. fanin_indegree_boundary pins a hub indegree of
  // 256, one past what a byte counts, and the engine must still match the
  // reference bit-for-bit.
  const std::filesystem::path dir(SWEEP_FUZZ_DATA_DIR);
  const char* files[] = {
      "oob_assignment.sweepfuzz",
      "corrupt_schedule_file.sweepfuzz",
      "cli_silent_zero.sweepfuzz",
      "edgeless_n0.sweepfuzz",
      "corrupt_instance_file.sweepfuzz",
      "corrupt_artifact.sweepfuzz",
      "wire_garbage.sweepfuzz",
      "fanin_indegree_boundary.sweepfuzz",
  };
  for (const char* file : files) {
    const std::string path = (dir / file).string();
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    const Repro repro = load_repro(path);
    const OracleReport report = run_oracles(repro.scenario);
    EXPECT_GT(report.checks_run, 0u) << file;
    EXPECT_TRUE(report.ok())
        << file << ": [" << report.violations.front().oracle << "] "
        << report.violations.front().message;
  }
}

TEST(FuzzShrink, SelfTestShrinksDeterministicallyToTheBoundary) {
  // The synthetic canary "fails" iff n >= 8 or k >= 4, so a correct greedy
  // shrinker must walk this scenario down to the k-boundary with n at 0.
  Scenario big;
  big.family = Family::kRandomLayered;
  big.hostile = Hostility::kSelfTest;
  big.seed = 123;
  big.n = 150;
  big.k = 5;
  big.layers = 4;
  big.m = 9;
  big.delay = 17;

  const ShrinkResult first = shrink_scenario(big);
  const ShrinkResult second = shrink_scenario(big);
  EXPECT_EQ(first.scenario, second.scenario);
  EXPECT_EQ(first.attempts, second.attempts);
  EXPECT_EQ(first.oracle, "self_test");

  EXPECT_TRUE(run_oracles(first.scenario).violates("self_test"));
  EXPECT_EQ(first.scenario.n, 0u);
  EXPECT_EQ(first.scenario.k, 4u);
  EXPECT_EQ(first.scenario.m, 1u);
  EXPECT_EQ(first.scenario.delay, 0u);
  EXPECT_GT(first.accepted, 0u);
}

TEST(FuzzShrink, PassingScenarioIsReturnedUnchanged) {
  Scenario s;  // defaults: small benign random layered instance
  s.seed = 42;
  const ShrinkResult result = shrink_scenario(s);
  EXPECT_EQ(result.scenario, s);
  EXPECT_TRUE(result.oracle.empty());
  EXPECT_EQ(result.accepted, 0u);
}

TEST(FuzzScenario, FanInFamilyStraddlesOneByteOfIndegree) {
  // hubs = 1 + layers % 4; each hub's indegree is n - hubs, so n = 257 /
  // layers = 0 sits exactly one past 255, the largest count a byte holds,
  // and n = 256 exactly at it.
  Scenario s;
  s.family = Family::kFanIn;
  s.k = 1;
  s.layers = 0;
  s.n = 257;
  EXPECT_EQ(materialize(s).task_graph().max_indegree(), 256u);
  s.n = 256;
  EXPECT_EQ(materialize(s).task_graph().max_indegree(), 255u);
}

TEST(FuzzScenario, TextRoundTripIsIdentity) {
  util::Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const Scenario s = sample_scenario(rng);
    std::istringstream in(to_text(s));
    EXPECT_EQ(scenario_from_text(in), s);
  }
}

TEST(FuzzScenario, ReproFileRoundTrip) {
  util::Rng rng(11);
  Repro repro;
  repro.scenario = sample_scenario(rng);
  repro.oracle = "engine_identity";
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "roundtrip.sweepfuzz")
          .string();
  save_repro(repro, path);
  const Repro loaded = load_repro(path);
  EXPECT_EQ(loaded.scenario, repro.scenario);
  EXPECT_EQ(loaded.oracle, repro.oracle);
}

TEST(FuzzScenario, RejectsMalformedReproFiles) {
  {
    std::istringstream in("sweepfuzz 2\noracle -\n");
    EXPECT_THROW(load_repro(in), std::runtime_error);
  }
  {
    std::istringstream in("sweepfuzz 1\noracle -\nfamily 99\n");
    EXPECT_THROW(load_repro(in), std::runtime_error);
  }
  {
    std::istringstream in("sweepfuzz 1\noracle -\nwat 1\n");
    EXPECT_THROW(load_repro(in), std::runtime_error);
  }
}

TEST(FuzzScenario, EveryFamilyMaterializes) {
  for (std::uint32_t f = 0; f <= static_cast<std::uint32_t>(Family::kEdgeless);
       ++f) {
    Scenario s;
    s.family = static_cast<Family>(f);
    s.seed = 17;
    s.n = 12;
    s.k = 2;
    const auto instance = materialize(s);
    EXPECT_GE(instance.n_directions(), 1u) << "family " << f;
  }
}

}  // namespace
}  // namespace sweep::fuzz
