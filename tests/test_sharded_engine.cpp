#include "core/sharded_schedule.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/assignment.hpp"
#include "core/list_scheduler.hpp"
#include "core/priorities.hpp"
#include "core/validate.hpp"
#include "obs/obs.hpp"
#include "sweep/dag_builder.hpp"
#include "sweep/directions.hpp"
#include "sweep/random_dag.hpp"
#include "test_helpers.hpp"

namespace sweep::core {
namespace {

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const char* name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

TEST(ShardMap, InvertsContiguousBlockBoundaries) {
  for (std::size_t m : {1u, 2u, 3u, 5u, 7u, 64u, 100u}) {
    for (std::size_t W = 1; W <= m; ++W) {
      for (std::size_t w = 0; w < W; ++w) {
        const std::size_t lo = w * m / W;
        const std::size_t hi = (w + 1) * m / W;
        for (std::size_t p = lo; p < hi; ++p) {
          EXPECT_EQ(detail::shard_of_processor(p, m, W), w)
              << "m=" << m << " W=" << W << " p=" << p;
        }
      }
    }
  }
}

TEST(ShardMap, ResolveWorkersClampsToProcessors) {
  EXPECT_EQ(detail::resolve_engine_workers(1, 100), 1u);
  EXPECT_EQ(detail::resolve_engine_workers(8, 100), 8u);
  EXPECT_EQ(detail::resolve_engine_workers(8, 3), 3u);
  EXPECT_EQ(detail::resolve_engine_workers(5, 1), 1u);
  // jobs = 0 resolves to the machine's executor count, still >= 1.
  EXPECT_GE(detail::resolve_engine_workers(0, 100), 1u);
  EXPECT_EQ(detail::resolve_engine_workers(0, 1), 1u);
}

void expect_matches_reference(const dag::SweepInstance& inst,
                              const Assignment& assignment, std::size_t m,
                              ListScheduleOptions options, const char* what) {
  options.jobs = 1;
  const Schedule reference =
      list_schedule_reference(inst, assignment, m, options);
  for (std::size_t jobs : {0u, 2u, 3u, 8u}) {
    options.jobs = jobs;
    const Schedule sharded = list_schedule(inst, assignment, m, options);
    ASSERT_EQ(sharded.n_tasks(), reference.n_tasks());
    for (TaskId t = 0; t < reference.n_tasks(); ++t) {
      ASSERT_EQ(sharded.start(t), reference.start(t))
          << what << ": jobs=" << jobs << " diverges at task " << t;
    }
  }
}

TEST(ShardedEngine, RandomInstancesMatchReference) {
  const auto inst = dag::random_instance(120, 5, 9, 2.0, 41);
  for (std::size_t m : {2u, 7u, 32u}) {
    util::Rng rng(m);
    const Assignment assignment = random_assignment(inst.n_cells(), m, rng);
    expect_matches_reference(inst, assignment, m, {}, "no priorities");

    ListScheduleOptions options;
    const auto level = level_priorities(inst);
    options.priorities = level;
    expect_matches_reference(inst, assignment, m, options, "level");

    const auto dfds = dfds_priorities(inst, assignment);
    options.priorities = dfds;
    expect_matches_reference(inst, assignment, m, options, "DFDS");
  }
}

TEST(ShardedEngine, GeometricInstanceMatchesReference) {
  const auto mesh = test::small_tet_mesh(5, 5, 3);
  const auto inst = dag::build_instance(mesh, dag::level_symmetric(2));
  util::Rng rng(3);
  const Assignment assignment = random_assignment(inst.n_cells(), 8, rng);
  ListScheduleOptions options;
  const auto level = level_priorities(inst);
  options.priorities = level;
  expect_matches_reference(inst, assignment, 8, options, "geometric");
}

TEST(ShardedEngine, NegativePrioritiesMatchReference) {
  const auto inst = dag::random_instance(60, 3, 6, 1.5, 19);
  util::Rng rng(4);
  const Assignment assignment = random_assignment(inst.n_cells(), 6, rng);
  std::vector<std::int64_t> negative(inst.n_tasks());
  for (std::size_t t = 0; t < negative.size(); ++t) {
    negative[t] = -static_cast<std::int64_t>(t % 13);
  }
  ListScheduleOptions options;
  options.priorities = negative;
  expect_matches_reference(inst, assignment, 6, options, "negative");
}

TEST(ShardedEngine, RepeatedRunsAreDeterministic) {
  // Stealing may interleave differently on every run; the schedule must not.
  const auto inst = dag::random_instance(150, 4, 10, 2.0, 67);
  util::Rng rng(11);
  const Assignment assignment = random_assignment(inst.n_cells(), 16, rng);
  ListScheduleOptions options;
  const auto level = level_priorities(inst);
  options.priorities = level;
  options.jobs = 8;
  const Schedule first = list_schedule(inst, assignment, 16, options);
  for (int run = 0; run < 5; ++run) {
    const Schedule again = list_schedule(inst, assignment, 16, options);
    ASSERT_EQ(again.starts(), first.starts()) << "run " << run;
  }
}

TEST(ShardedEngine, TakesShardedPathAndCountsRuns) {
  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(true);
  const auto inst = dag::random_instance(80, 4, 8, 2.0, 13);
  util::Rng rng(7);
  const Assignment assignment = random_assignment(inst.n_cells(), 8, rng);
  ListScheduleOptions options;
  options.jobs = 4;
  const Schedule s = list_schedule(inst, assignment, 8, options);
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  obs::set_metrics_enabled(false);
  EXPECT_TRUE(s.complete());
#if !defined(SWEEP_OBS_DISABLE)
  EXPECT_EQ(counter_value(snap, "engine.sharded.runs"), 1u);
  EXPECT_EQ(counter_value(snap, "engine.pops"), inst.n_tasks());
#else
  (void)snap;
#endif
}

TEST(ShardedEngine, GatedCallsUseSerialEngines) {
  // jobs != 1 with release times must not take the sharded path (and must
  // still match the reference).
  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(true);
  const auto inst = dag::random_instance(50, 3, 6, 1.8, 23);
  util::Rng rng(9);
  const Assignment assignment = random_assignment(inst.n_cells(), 4, rng);
  std::vector<TimeStep> releases(inst.n_tasks(), 0);
  releases[0] = 4;
  ListScheduleOptions options;
  options.release_times = releases;
  options.jobs = 8;
  const Schedule gated = list_schedule(inst, assignment, 4, options);
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  obs::set_metrics_enabled(false);
  EXPECT_EQ(counter_value(snap, "engine.sharded.runs"), 0u);
  const Schedule reference =
      list_schedule_reference(inst, assignment, 4, options);
  EXPECT_EQ(gated.starts(), reference.starts());
}

TEST(ShardedEngine, WidePriorityRangeUsesSerialEngines) {
  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(true);
  const auto inst = dag::random_instance(40, 2, 5, 1.5, 3);
  util::Rng rng(1);
  const Assignment assignment = random_assignment(inst.n_cells(), 4, rng);
  std::vector<std::int64_t> wide(inst.n_tasks());
  for (std::size_t t = 0; t < wide.size(); ++t) {
    wide[t] = static_cast<std::int64_t>(t) * 1000000;
  }
  ListScheduleOptions options;
  options.priorities = wide;
  options.jobs = 4;
  const Schedule s = list_schedule(inst, assignment, 4, options);
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  obs::set_metrics_enabled(false);
  EXPECT_EQ(counter_value(snap, "engine.sharded.runs"), 0u);
  EXPECT_EQ(s.starts(),
            list_schedule_reference(inst, assignment, 4, options).starts());
}

TEST(ShardedEngine, OutboxCapacityIsRetainedAcrossSupersteps) {
  // The per-(worker, dest shard) outboxes live in the caller's scratch:
  // after a warm-up run on the same shape, a second run must not reallocate
  // them mid-superstep, however stealing spreads the pops over executors
  // this time. engine.sharded.outbox_growths counts capacity increases
  // observed *within* one run, so the warm run must report zero.
  const auto inst = dag::random_instance(200, 5, 10, 2.2, 57);
  util::Rng rng(31);
  const Assignment assignment = random_assignment(inst.n_cells(), 16, rng);
  ListScheduleOptions options;
  const auto level = level_priorities(inst);
  options.priorities = level;
  options.jobs = 4;
  (void)list_schedule(inst, assignment, 16, options);  // warm the scratch

  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(true);
  (void)list_schedule(inst, assignment, 16, options);
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  obs::set_metrics_enabled(false);
#if !defined(SWEEP_OBS_DISABLE)
  EXPECT_EQ(counter_value(snap, "engine.sharded.runs"), 1u);
  EXPECT_EQ(counter_value(snap, "engine.sharded.outbox_growths"), 0u);
#else
  (void)snap;
#endif
}

TEST(ShardedEngine, HighFanInPastPackedCapMatchesReference) {
  // A funnel whose hub indegree (399) exceeds the serial slot engines'
  // 255 cap: the sharded engine keeps a full u32 indegree lane, so it must
  // stay on the sharded path and still match the reference — this also
  // sends one hub id hundreds of times into a single resolve batch, the
  // SIMD kernel's duplicate-collapse worst case.
  std::vector<std::pair<dag::NodeId, dag::NodeId>> edges;
  for (dag::NodeId src = 0; src < 399; ++src) edges.push_back({src, 399});
  std::vector<dag::SweepDag> dags;
  dags.emplace_back(400, edges);
  dags.emplace_back(400, edges);
  const auto inst = dag::SweepInstance(400, std::move(dags), "fanin");
  util::Rng rng(13);
  const Assignment assignment = random_assignment(inst.n_cells(), 8, rng);
  expect_matches_reference(inst, assignment, 8, {}, "fan-in");
}

TEST(ShardedEngine, ThrowsOnCyclicInstance) {
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(3, {{0, 1}, {1, 2}, {2, 0}}));
  auto inst = dag::SweepInstance(3, std::move(dags), "cycle");
  ListScheduleOptions options;
  options.jobs = 2;
  EXPECT_THROW(list_schedule(inst, Assignment{0, 1, 0}, 2, options),
               std::logic_error);
}

TEST(ShardedEngine, ValidatesLargeFanOut) {
  // A wider instance where stealing actually has work to move around.
  const auto inst = dag::random_instance(400, 6, 12, 2.5, 101);
  util::Rng rng(23);
  const Assignment assignment = random_assignment(inst.n_cells(), 48, rng);
  ListScheduleOptions options;
  const auto level = level_priorities(inst);
  options.priorities = level;
  options.jobs = 8;
  const Schedule s = list_schedule(inst, assignment, 48, options);
  const auto valid = validate_schedule(inst, s);
  EXPECT_TRUE(valid) << valid.error;
  EXPECT_EQ(s.starts(),
            list_schedule_reference(inst, assignment, 48, options).starts());
}

}  // namespace
}  // namespace sweep::core
