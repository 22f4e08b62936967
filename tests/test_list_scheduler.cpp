#include "core/list_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

#include "core/assignment.hpp"
#include "core/priorities.hpp"
#include "core/validate.hpp"
#include "obs/obs.hpp"
#include "sweep/dag_builder.hpp"
#include "sweep/directions.hpp"
#include "sweep/random_dag.hpp"
#include "test_helpers.hpp"

namespace sweep::core {
namespace {

dag::SweepInstance tiny_instance() {
  // Two directions over 4 cells: a diamond and a chain.
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}));
  dags.push_back(test::make_dag(4, {{3, 2}, {2, 1}, {1, 0}}));
  return dag::SweepInstance(4, std::move(dags), "tiny");
}

TEST(ListScheduler, ProducesValidSchedule) {
  const auto inst = tiny_instance();
  const Assignment assignment = {0, 1, 0, 1};
  const Schedule s = list_schedule(inst, assignment, 2);
  EXPECT_TRUE(s.complete());
  const auto valid = validate_schedule(inst, s);
  EXPECT_TRUE(valid) << valid.error;
}

TEST(ListScheduler, SingleProcessorIsSerial) {
  const auto inst = tiny_instance();
  const Schedule s = list_schedule(inst, Assignment{0, 0, 0, 0}, 1);
  EXPECT_EQ(s.makespan(), inst.n_tasks());
  EXPECT_EQ(s.idle_slots(), 0u);
}

TEST(ListScheduler, ChainInstanceIsSequentialPerDirection) {
  // k=1 chain: the makespan must be exactly n regardless of m.
  const auto inst = dag::chain_instance(30, 1, 5);
  util::Rng rng(1);
  const Assignment assignment = random_assignment(30, 4, rng);
  const Schedule s = list_schedule(inst, assignment, 4);
  EXPECT_EQ(s.makespan(), 30u);
}

TEST(ListScheduler, WorkConservingNoIdleWithReadyTasks) {
  // With one processor and no releases, a work-conserving schedule has no
  // holes: every t < makespan is used.
  const auto inst = dag::random_instance(50, 3, 6, 1.5, 7);
  const Schedule s = list_schedule(inst, Assignment(50, 0), 1);
  std::vector<char> used(s.makespan(), 0);
  for (TaskId t = 0; t < s.n_tasks(); ++t) used[s.start(t)] = 1;
  for (char u : used) EXPECT_TRUE(u);
}

TEST(ListScheduler, PrioritiesControlOrder) {
  // Two independent tasks on one processor: the lower-priority-value task
  // must run first.
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(2, {}));
  auto inst = dag::SweepInstance(2, std::move(dags), "pair");
  const std::vector<std::int64_t> prefer_cell1 = {10, 5};
  ListScheduleOptions options;
  options.priorities = prefer_cell1;
  const Schedule s = list_schedule(inst, Assignment{0, 0}, 1, options);
  EXPECT_LT(s.start(1, 0), s.start(0, 0));
}

TEST(ListScheduler, ReleaseTimesAreRespected) {
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(3, {}));
  auto inst = dag::SweepInstance(3, std::move(dags), "released");
  const std::vector<TimeStep> releases = {5, 0, 7};
  ListScheduleOptions options;
  options.release_times = releases;
  const Schedule s = list_schedule(inst, Assignment{0, 0, 0}, 2, options);
  EXPECT_GE(s.start(0, 0), 5u);
  EXPECT_EQ(s.start(1, 0), 0u);
  EXPECT_GE(s.start(2, 0), 7u);
  const auto valid = validate_schedule(inst, s);
  EXPECT_TRUE(valid) << valid.error;
}

TEST(ListScheduler, ThrowsOnCyclicInstance) {
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(3, {{0, 1}, {1, 2}, {2, 0}}));
  auto inst = dag::SweepInstance(3, std::move(dags), "cycle");
  EXPECT_THROW(list_schedule(inst, Assignment{0, 0, 0}, 1), std::logic_error);
}

TEST(ListScheduler, RejectsBadArguments) {
  const auto inst = tiny_instance();
  EXPECT_THROW(list_schedule(inst, Assignment{0}, 2), std::invalid_argument);
  EXPECT_THROW(list_schedule(inst, Assignment{0, 0, 0, 0}, 0),
               std::invalid_argument);
  EXPECT_THROW(list_schedule(inst, Assignment{0, 0, 0, 9}, 2),
               std::invalid_argument);
  std::vector<std::int64_t> bad_prio = {1, 2, 3};
  ListScheduleOptions options;
  options.priorities = bad_prio;
  EXPECT_THROW(list_schedule(inst, Assignment{0, 0, 0, 0}, 2, options),
               std::invalid_argument);
}

struct EngineCase {
  std::size_t n;
  std::size_t k;
  std::size_t m;
  std::size_t layers;
};

class EngineSweep : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineSweep, RandomInstancesAlwaysValid) {
  const auto& p = GetParam();
  const auto inst = dag::random_instance(p.n, p.k, p.layers, 2.0, 97);
  util::Rng rng(13);
  const Assignment assignment = random_assignment(p.n, p.m, rng);
  const Schedule s = list_schedule(inst, assignment, p.m);
  const auto valid = validate_schedule(inst, s);
  EXPECT_TRUE(valid) << valid.error;
  // Trivial bounds: serial above, average load below.
  EXPECT_LE(s.makespan(), inst.n_tasks());
  EXPECT_GE(s.makespan() * p.m, inst.n_tasks());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineSweep,
    ::testing::Values(EngineCase{1, 1, 1, 1}, EngineCase{20, 1, 4, 5},
                      EngineCase{50, 4, 2, 8}, EngineCase{50, 4, 64, 8},
                      EngineCase{200, 8, 16, 10}, EngineCase{100, 2, 100, 3},
                      EngineCase{64, 6, 7, 20}));

// ---------------------------------------------------------------------------
// Engine-identity tests: the slot-map engine and the per-direction-walk
// reference implementation must produce the exact same schedule — same start
// time for every task, not merely the same makespan — under every priority
// scheme and gating variant.

void expect_identical_engines(const dag::SweepInstance& inst,
                              const Assignment& assignment, std::size_t m,
                              const ListScheduleOptions& options,
                              const char* what) {
  const Schedule slot = list_schedule(inst, assignment, m, options);
  const Schedule reference = list_schedule_reference(inst, assignment, m,
                                                     options);
  ASSERT_EQ(slot.n_tasks(), reference.n_tasks());
  for (TaskId t = 0; t < reference.n_tasks(); ++t) {
    ASSERT_EQ(slot.start(t), reference.start(t))
        << what << ": slot engine diverges at task " << t;
  }
}

class EngineIdentity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineIdentity, AllPrioritySchemesMatchReference) {
  const auto inst = dag::random_instance(90, 5, 8, 2.0, 31);
  const std::size_t m = GetParam();
  util::Rng rng(5);
  const Assignment assignment = random_assignment(inst.n_cells(), m, rng);

  expect_identical_engines(inst, assignment, m, {}, "no priorities");

  ListScheduleOptions options;
  const auto level = level_priorities(inst);
  options.priorities = level;
  expect_identical_engines(inst, assignment, m, options, "level");

  const auto delays = random_delays(inst.n_directions(), rng);
  const auto rd = random_delay_priorities(inst, delays);
  options.priorities = rd;
  expect_identical_engines(inst, assignment, m, options, "random delay");

  const auto blevel = blevel_priorities(inst);
  options.priorities = blevel;
  expect_identical_engines(inst, assignment, m, options, "b-level");

  const auto desc = descendant_priorities(inst, rng);
  options.priorities = desc;
  expect_identical_engines(inst, assignment, m, options, "descendants");

  const auto dfds = dfds_priorities(inst, assignment);
  options.priorities = dfds;
  expect_identical_engines(inst, assignment, m, options, "DFDS");
}

TEST_P(EngineIdentity, GatedVariantsMatchReference) {
  const auto inst = dag::random_instance(70, 4, 6, 1.8, 23);
  const std::size_t m = GetParam();
  util::Rng rng(9);
  const Assignment assignment = random_assignment(inst.n_cells(), m, rng);
  const auto delays = random_delays(inst.n_directions(), rng);
  const auto releases = delay_release_times(inst, delays);
  const auto level = level_priorities(inst);

  ListScheduleOptions options;
  options.priorities = level;
  options.release_times = releases;
  expect_identical_engines(inst, assignment, m, options, "release times");

  options.release_times = {};
  options.cross_message_delay = 3;
  expect_identical_engines(inst, assignment, m, options, "cross delay");

  options.release_times = releases;
  expect_identical_engines(inst, assignment, m, options,
                           "release + cross delay");
}

INSTANTIATE_TEST_SUITE_P(ProcessorCounts, EngineIdentity,
                         ::testing::Values(1, 2, 7, 32, 90));

TEST(EngineIdentity, GeometricInstanceMatches) {
  const auto mesh = test::small_tet_mesh(5, 5, 3);
  const auto inst = dag::build_instance(mesh, dag::level_symmetric(2));
  util::Rng rng(3);
  const Assignment assignment = random_assignment(inst.n_cells(), 8, rng);
  const auto delays = random_delays(inst.n_directions(), rng);
  const auto rd = random_delay_priorities(inst, delays);
  ListScheduleOptions options;
  options.priorities = rd;
  expect_identical_engines(inst, assignment, 8, options, "geometric");
}

TEST(EngineIdentity, WidePriorityRangeMatches) {
  // A range of millions takes three radix passes over the priority bytes.
  const auto inst = dag::random_instance(60, 3, 5, 1.5, 17);
  util::Rng rng(21);
  const Assignment assignment = random_assignment(inst.n_cells(), 6, rng);
  std::vector<std::int64_t> wide(inst.n_tasks());
  for (std::size_t t = 0; t < wide.size(); ++t) {
    wide[t] = static_cast<std::int64_t>((t % 7) * 1000000) - 2000000;
  }
  ListScheduleOptions options;
  options.priorities = wide;
  expect_identical_engines(inst, assignment, 6, options, "wide range");
}

TEST(EngineIdentity, NegativePrioritiesMatch) {
  // Descendant/DFDS schemes are stored negated; exercise rebasing explicitly.
  const auto inst = dag::random_instance(40, 2, 5, 1.5, 29);
  util::Rng rng(2);
  const Assignment assignment = random_assignment(inst.n_cells(), 4, rng);
  std::vector<std::int64_t> negative(inst.n_tasks());
  for (std::size_t t = 0; t < negative.size(); ++t) {
    negative[t] = -static_cast<std::int64_t>(t % 11);
  }
  ListScheduleOptions options;
  options.priorities = negative;
  expect_identical_engines(inst, assignment, 4, options, "negative");
}

TEST(EngineIdentity, CornerShapesMatch) {
  util::Rng rng(77);

  // Single direction (k = 1).
  {
    const auto inst = dag::random_instance(40, 1, 6, 1.5, 11);
    const Assignment assignment = random_assignment(40, 4, rng);
    expect_identical_engines(inst, assignment, 4, {}, "k=1");
  }
  // Single processor: one region holds every slot.
  {
    const auto inst = dag::random_instance(30, 3, 5, 1.5, 13);
    expect_identical_engines(inst, Assignment(30, 0), 1, {}, "m=1");
  }
  // Far more processors than tasks: most processors own no region.
  {
    const auto inst = dag::random_instance(6, 2, 3, 1.0, 17);
    const Assignment assignment = random_assignment(6, 90, rng);
    expect_identical_engines(inst, assignment, 90, {}, "m >> nk");
  }
  // Empty instance: zero cells (one direction — the minimum), zero tasks.
  {
    std::vector<dag::SweepDag> dags;
    dags.push_back(test::make_dag(0, {}));
    auto inst = dag::SweepInstance(0, std::move(dags), "empty");
    expect_identical_engines(inst, Assignment{}, 3, {}, "empty");
  }
}

TEST(EngineIdentity, ExtremeAndTiedPrioritiesMatch) {
  // Any int64 vector is legal input. Priorities spanning more than 2^63
  // (INT64_MIN next to INT64_MAX) must rebase without signed overflow, and
  // heavy ties must fall back to task id exactly as the reference does.
  const auto inst = dag::random_instance(80, 4, 7, 2.0, 41);
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::int64_t pool[] = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  util::Rng rng(43);
  std::vector<std::int64_t> extreme(inst.n_tasks());
  for (auto& p : extreme) p = pool[rng.next_below(std::size(pool))];
  std::vector<std::int64_t> wide(inst.n_tasks());
  for (auto& p : wide) p = static_cast<std::int64_t>(rng());
  const std::vector<std::int64_t> all_min(inst.n_tasks(), kMin);
  const std::vector<std::int64_t> all_max(inst.n_tasks(), kMax);
  std::vector<std::int64_t> two_ends(inst.n_tasks());
  for (std::size_t t = 0; t < two_ends.size(); ++t) {
    two_ends[t] = t % 2 == 0 ? kMin : kMax;
  }
  const auto delays = random_delays(inst.n_directions(), rng);
  const auto releases = delay_release_times(inst, delays);

  const std::vector<std::int64_t>* const cases[] = {&extreme, &wide, &all_min,
                                                    &all_max, &two_ends};
  for (const std::size_t m : {1u, 3u, 16u}) {
    const Assignment assignment = random_assignment(inst.n_cells(), m, rng);
    for (const std::vector<std::int64_t>* priorities : cases) {
      ListScheduleOptions options;
      options.priorities = *priorities;
      expect_identical_engines(inst, assignment, m, options, "ungated");
      options.release_times = releases;
      options.cross_message_delay = 2;
      expect_identical_engines(inst, assignment, m, options, "gated");
    }
  }
}

TEST(EngineIdentity, FanInBeyondAnyByteMatches) {
  // One cell with 300 predecessors: the indegree lane is a plain u32.
  constexpr std::size_t kPreds = 300;
  std::vector<std::pair<dag::NodeId, dag::NodeId>> edges;
  for (dag::NodeId u = 0; u < kPreds; ++u) edges.emplace_back(u, kPreds);
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(kPreds + 1, edges));
  const dag::SweepInstance inst(kPreds + 1, std::move(dags), "fan-in");
  util::Rng rng(8);
  for (const std::size_t m : {1u, 5u}) {
    const Assignment assignment = random_assignment(inst.n_cells(), m, rng);
    expect_identical_engines(inst, assignment, m, {}, "fan-in");
  }
}

TEST(ListScheduler, HugeProcessorCountMatchesRelabelledSchedule) {
  // A schedule does not depend on processor labels, only on which cells
  // share one. Cells on processors {0, 2^32 - 2} of m = 2^32 - 1 must get
  // the starts of the same cells on {0, 1} of m = 2 — and the engine's
  // memory is O(tasks), so the huge m costs nothing.
  const auto inst = dag::random_instance(60, 3, 6, 1.8, 47);
  constexpr std::size_t kHugeM = std::numeric_limits<std::uint32_t>::max();
  constexpr auto kLast = static_cast<ProcessorId>(kHugeM - 1);
  util::Rng rng(4);
  const Assignment small = random_assignment(inst.n_cells(), 2, rng);
  Assignment huge = small;
  for (ProcessorId& p : huge) p = p == 0 ? 0 : kLast;
  const auto level = level_priorities(inst);
  const auto delays = random_delays(inst.n_directions(), rng);
  const auto releases = delay_release_times(inst, delays);

  ListScheduleOptions options;
  options.priorities = level;
  const Schedule want = list_schedule_reference(inst, small, 2, options);
  const Schedule got = list_schedule(inst, huge, kHugeM, options);
  EXPECT_EQ(got.starts(), want.starts());
  EXPECT_EQ(got.n_processors(), kHugeM);

  options.release_times = releases;
  options.cross_message_delay = 2;
  EXPECT_EQ(list_schedule(inst, huge, kHugeM, options).starts(),
            list_schedule_reference(inst, small, 2, options).starts());
}

// The counter test asserts nonzero metric values, which only exist when
// observability is compiled in (SWEEP_OBS=ON, the default).
#if !defined(SWEEP_OBS_DISABLE)
std::uint64_t counter_value_of(const char* name) {
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

TEST(ListScheduler, OneEngineServesEveryPriorityWidth) {
  // Narrow (level), wide (descendant-like, range ~10^7) and absent
  // priorities all run the slot engine; there is nothing to fall back to.
  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(true);
  const auto inst = dag::random_instance(40, 2, 5, 1.5, 7);
  util::Rng rng(3);
  const Assignment assignment = random_assignment(inst.n_cells(), 4, rng);
  const auto level = level_priorities(inst);
  std::vector<std::int64_t> wide(inst.n_tasks());
  for (std::size_t t = 0; t < wide.size(); ++t) {
    wide[t] = static_cast<std::int64_t>(t % 5) * 10000000;
  }
  ListScheduleOptions options;
  EXPECT_TRUE(list_schedule(inst, assignment, 4, options).complete());
  options.priorities = level;
  EXPECT_TRUE(list_schedule(inst, assignment, 4, options).complete());
  options.priorities = wide;
  EXPECT_TRUE(list_schedule(inst, assignment, 4, options).complete());
  EXPECT_EQ(counter_value_of("engine.slot.runs"), 3u);
  obs::set_metrics_enabled(false);
}
#endif  // SWEEP_OBS_DISABLE

TEST(GreedyUnionSchedule, RespectsPrecedenceAndWidth) {
  const auto inst = dag::random_instance(120, 4, 10, 2.0, 55);
  std::size_t makespan = 0;
  const auto step = greedy_union_schedule(inst, 8, &makespan);
  // Width <= m per step.
  std::vector<std::size_t> width(makespan, 0);
  for (TaskId t = 0; t < step.size(); ++t) {
    ASSERT_NE(step[t], kUnscheduled);
    ASSERT_LT(step[t], makespan);
    ++width[step[t]];
  }
  for (std::size_t w : width) EXPECT_LE(w, 8u);
  // Precedence.
  const std::size_t n = inst.n_cells();
  for (DirectionId i = 0; i < inst.n_directions(); ++i) {
    const auto& g = inst.dag(i);
    for (dag::NodeId u = 0; u < n; ++u) {
      for (dag::NodeId v : g.successors(u)) {
        EXPECT_LT(step[task_id(u, i, n)], step[task_id(v, i, n)]);
      }
    }
  }
}

TEST(GreedyUnionSchedule, GrahamBound) {
  // Graham's guarantee: makespan <= total/m + critical path.
  const auto inst = dag::random_instance(200, 3, 12, 2.0, 77);
  for (std::size_t m : {2u, 8u, 32u}) {
    std::size_t makespan = 0;
    greedy_union_schedule(inst, m, &makespan);
    const std::size_t bound = inst.n_tasks() / m + 1 + inst.max_depth();
    EXPECT_LE(makespan, bound) << "m=" << m;
  }
}

TEST(GreedyUnionSchedule, SerialEqualsTaskCount) {
  const auto inst = dag::random_instance(40, 2, 5, 1.0, 3);
  std::size_t makespan = 0;
  greedy_union_schedule(inst, 1, &makespan);
  EXPECT_EQ(makespan, inst.n_tasks());
}

}  // namespace
}  // namespace sweep::core
