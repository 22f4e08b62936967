// Google-benchmark microbenchmarks for the performance-critical kernels:
// mesh generation, DAG induction, level computation, the list-scheduling
// engine (old per-direction-walk path vs. the flat TaskGraph slot-map
// engine), Algorithm 1's layered construction, and the
// multilevel partitioner. These back the paper's remark that the algorithms
// run in near-linear time in the schedule length.
//
// After the google-benchmark run, main() times each scheduling algorithm
// end-to-end and writes a machine-readable throughput report (tasks/sec per
// algorithm, old vs. new list-scheduler path) so later PRs can track the
// perf trajectory:
//   path: $SWEEP_BENCH_JSON, default "BENCH_schedule_throughput.json"
//   skip: set SWEEP_BENCH_JSON=none
//   reps: --reps N (default 5) — each report entry is the min over N
//         repetitions (noise filter)
//   csv:  --csv PATH (or --csv=PATH) — additionally write the throughput
//         rows as CSV (name,seconds_per_run,tasks_per_sec) for spreadsheet
//         / plotting pipelines that don't want to parse JSON

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/assignment.hpp"
#include "core/list_scheduler.hpp"
#include "core/priorities.hpp"
#include "core/random_delay.hpp"
#include "mesh/zoo.hpp"
#include "partition/multilevel.hpp"
#include "sweep/dag_builder.hpp"
#include "sweep/instance.hpp"
#include "sweep/task_graph.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace sweep;

const mesh::UnstructuredMesh& bench_mesh() {
  static const mesh::UnstructuredMesh m = mesh::MeshZoo::tetonly_like(0.5);
  return m;
}

const dag::SweepInstance& bench_instance() {
  static const dag::SweepInstance inst =
      dag::build_instance(bench_mesh(), dag::level_symmetric(4));
  return inst;
}

/// Shared fixture for the list-scheduler benchmarks: one assignment and one
/// random-delay priority vector, reused so old and new paths time the exact
/// same scheduling problem.
struct SchedFixture {
  core::Assignment assignment;
  std::vector<core::TimeStep> delays;
  std::vector<std::int64_t> priorities;
};

const SchedFixture& sched_fixture(std::size_t m) {
  // std::map: node-based, so references stay valid as entries are added.
  static std::map<std::size_t, SchedFixture> cache;
  const auto it = cache.find(m);
  if (it != cache.end()) return it->second;
  util::Rng rng(1);
  SchedFixture fix;
  fix.assignment = core::random_assignment(bench_instance().n_cells(), m, rng);
  fix.delays = core::random_delays(bench_instance().n_directions(), rng);
  fix.priorities = core::random_delay_priorities(bench_instance(), fix.delays);
  return cache.emplace(m, std::move(fix)).first->second;
}

void BM_MeshGeneration(benchmark::State& state) {
  for (auto _ : state) {
    const auto m = mesh::MeshZoo::tetonly_like(
        0.1 * static_cast<double>(state.range(0)));
    benchmark::DoNotOptimize(m.n_cells());
  }
}
BENCHMARK(BM_MeshGeneration)->Arg(2)->Arg(4)->Arg(6);

void BM_DagInduction(benchmark::State& state) {
  const auto& m = bench_mesh();
  const mesh::Vec3 dir = mesh::normalized({0.5, 0.3, 0.8});
  for (auto _ : state) {
    auto result = dag::build_sweep_dag(m, dir);
    benchmark::DoNotOptimize(result.dag.n_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.n_cells()));
}
BENCHMARK(BM_DagInduction);

void BM_Levels(benchmark::State& state) {
  const auto& inst = bench_instance();
  for (auto _ : state) {
    auto levels = inst.dag(0).levels();
    benchmark::DoNotOptimize(levels.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.n_cells()));
}
BENCHMARK(BM_Levels);

void BM_TaskGraphBuild(benchmark::State& state) {
  const auto& inst = bench_instance();
  const auto& levels = inst.levels();
  for (auto _ : state) {
    auto tg = dag::TaskGraph::build(inst.n_cells(), inst.dags(), levels);
    benchmark::DoNotOptimize(tg.n_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.n_tasks()));
}
BENCHMARK(BM_TaskGraphBuild);

/// The slot-map engine.
void BM_ListScheduler(benchmark::State& state) {
  const auto& inst = bench_instance();
  const auto m = static_cast<std::size_t>(state.range(0));
  const SchedFixture& fix = sched_fixture(m);
  core::ListScheduleOptions options;
  options.priorities = fix.priorities;
  (void)inst.task_graph();  // exclude the one-time CSR build from the timing
  for (auto _ : state) {
    auto schedule = core::list_schedule(inst, fix.assignment, m, options);
    benchmark::DoNotOptimize(schedule.makespan());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.n_tasks()));
}
BENCHMARK(BM_ListScheduler)->Arg(8)->Arg(64)->Arg(512);

/// Old path: per-direction DAG walks + task-id arithmetic per edge.
void BM_ListSchedulerReference(benchmark::State& state) {
  const auto& inst = bench_instance();
  const auto m = static_cast<std::size_t>(state.range(0));
  const SchedFixture& fix = sched_fixture(m);
  core::ListScheduleOptions options;
  options.priorities = fix.priorities;
  for (auto _ : state) {
    auto schedule =
        core::list_schedule_reference(inst, fix.assignment, m, options);
    benchmark::DoNotOptimize(schedule.makespan());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.n_tasks()));
}
BENCHMARK(BM_ListSchedulerReference)->Arg(8)->Arg(64)->Arg(512);

void BM_GreedyUnionSchedule(benchmark::State& state) {
  const auto& inst = bench_instance();
  (void)inst.task_graph();
  for (auto _ : state) {
    auto step = core::greedy_union_schedule(inst, 64);
    benchmark::DoNotOptimize(step.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.n_tasks()));
}
BENCHMARK(BM_GreedyUnionSchedule);

void BM_RandomDelaySchedule(benchmark::State& state) {
  const auto& inst = bench_instance();
  util::Rng rng(2);
  for (auto _ : state) {
    auto result = core::random_delay_schedule(inst, 64, rng);
    benchmark::DoNotOptimize(result.schedule.makespan());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.n_tasks()));
}
BENCHMARK(BM_RandomDelaySchedule);

void BM_ImprovedRandomDelaySchedule(benchmark::State& state) {
  const auto& inst = bench_instance();
  util::Rng rng(3);
  for (auto _ : state) {
    auto result = core::improved_random_delay_schedule(inst, 64, rng);
    benchmark::DoNotOptimize(result.schedule.makespan());
  }
}
BENCHMARK(BM_ImprovedRandomDelaySchedule);

void BM_MultilevelPartition(benchmark::State& state) {
  const auto graph = partition::graph_from_mesh(bench_mesh());
  partition::MultilevelOptions options;
  options.n_parts = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto part = partition::multilevel_partition(graph, options);
    benchmark::DoNotOptimize(part.data());
  }
}
BENCHMARK(BM_MultilevelPartition)->Arg(8)->Arg(64);

// ---------------------------------------------------------------------------
// Machine-readable throughput report.

/// Repetition count for the throughput report (--reps N, default 5). Each
/// measurement is repeated this many times and the MINIMUM per-run time is
/// reported: the min is the standard noise filter for benchmarks on shared
/// machines — scheduling hiccups and cache-cold outliers only ever slow a
/// rep down, never speed it up.
std::size_t g_reps = 5;

/// One repetition: times runner() until >= min_seconds of accumulated
/// runtime (at least two runs) and returns seconds per run. time_per_run
/// takes the min over g_reps such repetitions.
template <typename F>
double time_one_rep(F& runner, double min_seconds) {
  util::Timer timer;
  double elapsed = 0.0;
  std::size_t runs = 0;
  while (elapsed < min_seconds || runs < 2) {
    runner();
    ++runs;
    elapsed = timer.seconds();
  }
  return elapsed / static_cast<double>(runs);
}

template <typename F>
double time_per_run(F&& runner, double min_seconds = 0.4) {
  runner();  // warm-up (also forces lazy caches)
  // Keep the total budget ~min_seconds regardless of the rep count.
  const double per_rep =
      min_seconds / static_cast<double>(std::max<std::size_t>(g_reps, 1));
  double best = time_one_rep(runner, per_rep);
  for (std::size_t rep = 1; rep < g_reps; ++rep) {
    best = std::min(best, time_one_rep(runner, per_rep));
  }
  return best;
}

struct ThroughputRow {
  std::string name;
  double seconds_per_run;
  double tasks_per_sec;
};

/// --csv PATH: mirror the throughput rows as CSV. Empty = off.
std::string g_csv_path;

void write_throughput_csv(const std::string& path,
                          const std::vector<ThroughputRow>& rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "name,seconds_per_run,tasks_per_sec\n");
  for (const ThroughputRow& row : rows) {
    std::fprintf(out, "%s,%.6f,%.0f\n", row.name.c_str(),
                 row.seconds_per_run, row.tasks_per_sec);
  }
  std::fclose(out);
  std::printf("[throughput] wrote %s\n", path.c_str());
}

void write_throughput_json(const std::string& path) {
  const auto& inst = bench_instance();
  const std::size_t m = 64;
  const SchedFixture& fix = sched_fixture(m);
  const double n_tasks = static_cast<double>(inst.n_tasks());

  std::vector<ThroughputRow> rows;
  auto add = [&](const std::string& name, double secs) {
    rows.push_back({name, secs, n_tasks / secs});
  };

  {
    core::ListScheduleOptions options;
    options.priorities = fix.priorities;
    add("list_schedule", time_per_run([&] {
          benchmark::DoNotOptimize(
              core::list_schedule(inst, fix.assignment, m, options)
                  .makespan());
        }));
    add("list_schedule_reference", time_per_run([&] {
          benchmark::DoNotOptimize(
              core::list_schedule_reference(inst, fix.assignment, m, options)
                  .makespan());
        }));
  }
  add("greedy_union_schedule", time_per_run([&] {
        benchmark::DoNotOptimize(core::greedy_union_schedule(inst, m).data());
      }));
  {
    util::Rng rng(2);
    add("random_delay_schedule", time_per_run([&] {
          benchmark::DoNotOptimize(
              core::random_delay_schedule(inst, m, rng).schedule.makespan());
        }));
  }
  {
    util::Rng rng(3);
    add("improved_random_delay_schedule", time_per_run([&] {
          benchmark::DoNotOptimize(
              core::improved_random_delay_schedule(inst, m, rng)
                  .schedule.makespan());
        }));
  }

  double reference_secs = 0.0;
  double engine_secs = 0.0;
  for (const ThroughputRow& row : rows) {
    if (row.name == "list_schedule_reference") reference_secs = row.seconds_per_run;
    if (row.name == "list_schedule") engine_secs = row.seconds_per_run;
  }

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"mesh\": \"%s\",\n", bench_mesh().name().c_str());
  std::fprintf(out, "  \"scale\": 0.5,\n");
  std::fprintf(out, "  \"n_cells\": %zu,\n", inst.n_cells());
  std::fprintf(out, "  \"n_directions\": %zu,\n", inst.n_directions());
  std::fprintf(out, "  \"n_tasks\": %zu,\n", inst.n_tasks());
  std::fprintf(out, "  \"n_edges\": %zu,\n", inst.total_edges());
  std::fprintf(out, "  \"n_processors\": %zu,\n", m);
  std::fprintf(out, "  \"list_schedule_speedup_vs_reference\": %.3f,\n",
               engine_secs > 0.0 ? reference_secs / engine_secs : 0.0);
  std::fprintf(out, "  \"algorithms\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"seconds_per_run\": %.6f, "
                 "\"tasks_per_sec\": %.0f}%s\n",
                 rows[i].name.c_str(), rows[i].seconds_per_run,
                 rows[i].tasks_per_sec, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("[throughput] wrote %s (list_schedule %.2fx vs reference)\n",
              path.c_str(),
              engine_secs > 0.0 ? reference_secs / engine_secs : 0.0);
  if (!g_csv_path.empty()) write_throughput_csv(g_csv_path, rows);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --reps N / --reps=N before google-benchmark sees the arguments
  // (it rejects flags it does not know).
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reps" && i + 1 < argc) {
      g_reps = std::max(1ul, std::strtoul(argv[++i], nullptr, 10));
    } else if (arg.rfind("--reps=", 0) == 0) {
      g_reps = std::max(1ul, std::strtoul(arg.c_str() + 7, nullptr, 10));
    } else if (arg == "--csv" && i + 1 < argc) {
      g_csv_path = argv[++i];
    } else if (arg.rfind("--csv=", 0) == 0) {
      g_csv_path = arg.substr(6);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();

  const char* json_path = std::getenv("SWEEP_BENCH_JSON");
  const std::string path =
      json_path != nullptr ? json_path : "BENCH_schedule_throughput.json";
  if (path != "none") write_throughput_json(path);
  return 0;
}
