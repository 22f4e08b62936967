// Preprocessing-pipeline throughput report (DESIGN.md §11).
//
// Times every stage of the scheduling preprocessing pipeline — descendant
// priorities, tiled exact descendant counting, multilevel block
// partitioning, and the C1/C2 communication-cost evaluation — against the
// preserved *_reference implementations, on the fig3b workload (tetonly
// mesh, level-symmetric directions, block partition). The priority stage
// replays the figure harness's trial loop: run_fig3 rebuilds descendant
// priorities once per (processor count, trial) point, so the stage times
// --trials consecutive constructions. The reference recomputes the
// transitive closure on every construction (the original behaviour); the
// production path computes it once per direction and serves the remaining
// trials from the instance-level cache. Each stage is also
// checksummed: the parallel paths must be byte-identical to their serial
// references for every --jobs, and the binary exits nonzero on any
// mismatch or if the written JSON is missing a stage, so the bench doubles
// as an integration check (see the bench-pipeline-smoke preset).
//
// Output: --json PATH (default BENCH_pipeline_throughput.json), schema:
//   { "mesh": ..., "scale": ..., "n_cells": ..., "n_directions": ...,
//     "jobs": J, "trials": T,
//     "stages": [ { "name": ..., "in_pipeline": true|false,
//                   "reference_seconds": ..., "serial_seconds": ...,
//                   "parallel_seconds": ..., "speedup_vs_reference": ...,
//                   "checksum": "0x...", "identical": true } , ... ],
//     "end_to_end": { "reference_seconds": ..., "parallel_seconds": ...,
//                     "speedup": ... } }
// end_to_end sums the in_pipeline stages only (the isolated
// exact_descendant_counts stage re-times work already inside
// descendant_priorities).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/comm_cost.hpp"
#include "core/list_scheduler.hpp"
#include "core/priorities.hpp"
#include "sweep/descendants.hpp"

namespace {

using namespace sweep;

std::uint64_t fnv1a_mix(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

template <typename T>
std::uint64_t fnv1a(const std::vector<T>& values) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const T& v : values) hash = fnv1a_mix(hash, static_cast<std::uint64_t>(v));
  return hash;
}

struct StageResult {
  std::string name;
  bool in_pipeline = true;
  double reference_seconds = 0.0;
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  std::uint64_t checksum = 0;
  bool identical = false;
};

/// Times `fn` (which returns a checksum) `reps` times; returns the fastest
/// run and writes the checksum of the last run (all runs must agree — the
/// pipeline is deterministic, so any instability would be a bug caught by
/// the identical flags below).
template <typename Fn>
double time_stage(std::size_t reps, std::uint64_t& checksum, Fn&& fn) {
  double best = -1.0;
  for (std::size_t r = 0; r < std::max<std::size_t>(reps, 1); ++r) {
    util::Timer timer;
    checksum = fn();
    const double s = timer.seconds();
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

void print_stage(const StageResult& s) {
  std::printf("[stage] %-26s ref %8.4fs  jobs=1 %8.4fs  jobs=N %8.4fs  "
              "speedup %5.2fx  %s\n",
              s.name.c_str(), s.reference_seconds, s.serial_seconds,
              s.parallel_seconds,
              s.parallel_seconds > 0.0 ? s.reference_seconds / s.parallel_seconds
                                       : 0.0,
              s.identical ? "identical" : "MISMATCH");
}

std::string json_escape_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", v);
  return buffer;
}

bool write_json(const std::string& path, const std::string& mesh_name,
                double scale, const dag::SweepInstance& inst, std::size_t jobs,
                std::size_t trials, const std::vector<StageResult>& stages) {
  double ref_total = 0.0;
  double par_total = 0.0;
  for (const StageResult& s : stages) {
    if (!s.in_pipeline) continue;
    ref_total += s.reference_seconds;
    par_total += s.parallel_seconds;
  }
  std::ostringstream out;
  out << "{\n"
      << "  \"mesh\": \"" << mesh_name << "\",\n"
      << "  \"scale\": " << json_escape_double(scale) << ",\n"
      << "  \"n_cells\": " << inst.n_cells() << ",\n"
      << "  \"n_directions\": " << inst.n_directions() << ",\n"
      << "  \"n_tasks\": " << inst.n_tasks() << ",\n"
      << "  \"jobs\": " << jobs << ",\n"
      << "  \"trials\": " << trials << ",\n"
      << "  \"stages\": [\n";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageResult& s = stages[i];
    char checksum[32];
    std::snprintf(checksum, sizeof(checksum), "0x%016llx",
                  static_cast<unsigned long long>(s.checksum));
    out << "    {\"name\": \"" << s.name << "\", \"in_pipeline\": "
        << (s.in_pipeline ? "true" : "false")
        << ", \"reference_seconds\": " << json_escape_double(s.reference_seconds)
        << ", \"serial_seconds\": " << json_escape_double(s.serial_seconds)
        << ", \"parallel_seconds\": " << json_escape_double(s.parallel_seconds)
        << ", \"speedup_vs_reference\": "
        << json_escape_double(s.parallel_seconds > 0.0
                                  ? s.reference_seconds / s.parallel_seconds
                                  : 0.0)
        << ", \"checksum\": \"" << checksum << "\""
        << ", \"identical\": " << (s.identical ? "true" : "false") << "}"
        << (i + 1 < stages.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"end_to_end\": {\"reference_seconds\": "
      << json_escape_double(ref_total)
      << ", \"parallel_seconds\": " << json_escape_double(par_total)
      << ", \"speedup\": "
      << json_escape_double(par_total > 0.0 ? ref_total / par_total : 0.0)
      << "}\n"
      << "}\n";
  std::ofstream file(path);
  if (!file) return false;
  file << out.str();
  return static_cast<bool>(file.flush());
}

/// Re-reads the written JSON and verifies every expected stage is present
/// and no stage reported a mismatch — the smoke preset relies on this.
bool validate_json(const std::string& path,
                   const std::vector<StageResult>& stages) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "FATAL: cannot re-read %s\n", path.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();
  bool ok = true;
  for (const StageResult& s : stages) {
    if (text.find("\"name\": \"" + s.name + "\"") == std::string::npos) {
      std::fprintf(stderr, "FATAL: stage '%s' missing from %s\n",
                   s.name.c_str(), path.c_str());
      ok = false;
    }
  }
  if (text.find("\"identical\": false") != std::string::npos) {
    std::fprintf(stderr, "FATAL: %s records a checksum mismatch\n",
                 path.c_str());
    ok = false;
  }
  if (text.find("\"end_to_end\"") == std::string::npos) {
    std::fprintf(stderr, "FATAL: end_to_end summary missing from %s\n",
                 path.c_str());
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, const char** argv) {
  util::CliParser cli("pipeline_throughput",
                      "preprocessing pipeline throughput vs reference paths");
  bench::add_common_options(cli);
  cli.add_option("order", "4", "Sn quadrature order (fig3 uses 2/4/6)");
  cli.add_option("procs", "64", "processors for the C1/C2 evaluation");
  cli.add_option("block", "256", "paper block size (scaled by scale^3)");
  cli.add_option("reps", "3", "timing repetitions per stage (fastest wins)");
  cli.add_option("trials", "15",
                 "priority constructions per rep, matching run_fig3's 5 "
                 "processor counts x 3 trials at one order");
  cli.add_option("json", "BENCH_pipeline_throughput.json",
                 "output report path");
  if (!cli.parse(argc, argv)) return 2;
  bench::configure_jobs(cli);

  const double scale = bench::resolve_scale(cli);
  const auto order = static_cast<std::size_t>(cli.integer("order"));
  const auto m = static_cast<std::size_t>(cli.integer("procs"));
  const auto reps = static_cast<std::size_t>(cli.integer("reps"));
  const auto trials =
      std::max<std::size_t>(1, static_cast<std::size_t>(cli.integer("trials")));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  const std::size_t jobs = bench::trial_jobs();
  const std::string mesh_name = "tetonly";

  const bench::BenchInstance bi = bench::make_instance(mesh_name, scale, order, seed);
  const dag::SweepInstance& inst = bi.instance;
  (void)inst.task_graph();  // warm the lazy cache outside the timed stages
  const std::size_t block_size = bench::scaled_block_size(
      static_cast<std::size_t>(cli.integer("block")), scale);

  std::vector<StageResult> stages;

  // Stage 1: descendant priorities over the fig3b trial loop — one
  // construction per (processor count, trial) point, each trial with its
  // own seed, exactly as run_fig3 replays them. The production runs use a
  // fresh instance copy per rep (copies start with cold caches, and the
  // copy itself is outside the timer) so the first trial pays the full
  // transitive closure and the remaining trials hit the cache, matching
  // what a real figure run experiences.
  {
    StageResult s;
    s.name = "descendant_priorities";
    auto run_trials = [&](const dag::SweepInstance& instance, auto&& one) {
      std::uint64_t hash = 0;
      for (std::size_t t = 0; t < trials; ++t) {
        util::Rng rng(seed + 1000003 * t);  // per-trial stream
        hash ^= fnv1a(one(instance, rng));
      }
      return hash;
    };
    std::uint64_t ref_sum = 0;
    s.reference_seconds = time_stage(reps, ref_sum, [&] {
      return run_trials(inst, [&](const dag::SweepInstance& instance,
                                  util::Rng& rng) {
        return core::descendant_priorities_reference(instance, rng);
      });
    });
    auto timed_production = [&](std::size_t j, std::uint64_t& out_sum) {
      double best = -1.0;
      for (std::size_t r = 0; r < std::max<std::size_t>(reps, 1); ++r) {
        const dag::SweepInstance fresh(inst);  // cold caches, untimed copy
        util::Timer timer;
        out_sum = run_trials(fresh, [&](const dag::SweepInstance& instance,
                                        util::Rng& rng) {
          return core::descendant_priorities(instance, rng, j);
        });
        const double sec = timer.seconds();
        if (best < 0.0 || sec < best) best = sec;
      }
      return best;
    };
    std::uint64_t serial_sum = 0;
    s.serial_seconds = timed_production(1, serial_sum);
    s.parallel_seconds = timed_production(jobs, s.checksum);
    s.identical = ref_sum == serial_sum && serial_sum == s.checksum;
    stages.push_back(s);
    print_stage(s);
  }

  // Stage 2 (isolated): tiled exact descendant counting across all
  // directions — the kernel inside stage 1, re-timed alone so the
  // triangular-strip win (serial, jobs = 1) and the strip parallelism
  // (pool width) are visible separately from the RNG/fill work.
  {
    StageResult s;
    s.name = "exact_descendant_counts";
    s.in_pipeline = false;
    std::uint64_t ref_sum = 0;
    s.reference_seconds = time_stage(reps, ref_sum, [&] {
      std::uint64_t hash = 0;
      for (std::size_t i = 0; i < inst.n_directions(); ++i) {
        hash ^= fnv1a(dag::exact_descendant_counts_reference(inst.dag(i)));
      }
      return hash;
    });
    auto all_directions = [&](std::size_t j) {
      std::uint64_t hash = 0;
      for (std::size_t i = 0; i < inst.n_directions(); ++i) {
        hash ^= fnv1a(
            dag::exact_descendant_counts(inst.dag(i), 1u << 14, nullptr, j));
      }
      return hash;
    };
    std::uint64_t serial_sum = 0;
    s.serial_seconds =
        time_stage(reps, serial_sum, [&] { return all_directions(1); });
    s.parallel_seconds =
        time_stage(reps, s.checksum, [&] { return all_directions(jobs); });
    s.identical = ref_sum == serial_sum && serial_sum == s.checksum;
    stages.push_back(s);
    print_stage(s);
  }

  // Stage 3: multilevel block partitioning (pool-task bisection branches).
  partition::Partition blocks;
  {
    StageResult s;
    s.name = "multilevel_partition";
    partition::MultilevelOptions options;
    options.seed = seed;
    options.n_parts = std::max<std::size_t>(
        1, (bi.graph.n_vertices() + block_size - 1) / block_size);
    std::uint64_t ref_sum = 0;
    s.reference_seconds = time_stage(reps, ref_sum, [&] {
      return fnv1a(partition::multilevel_partition_reference(bi.graph, options));
    });
    std::uint64_t serial_sum = 0;
    s.serial_seconds = time_stage(reps, serial_sum, [&] {
      partition::MultilevelOptions o = options;
      o.jobs = 1;
      return fnv1a(partition::multilevel_partition(bi.graph, o));
    });
    s.parallel_seconds = time_stage(reps, s.checksum, [&] {
      partition::MultilevelOptions o = options;
      o.jobs = jobs;
      blocks = partition::multilevel_partition(bi.graph, o);
      return fnv1a(blocks);
    });
    s.identical = ref_sum == serial_sum && serial_sum == s.checksum;
    stages.push_back(s);
    print_stage(s);
  }

  // Assignment + schedule for the cost stages (not timed: scheduling
  // throughput has its own report, BENCH_schedule_throughput.json).
  util::Rng assign_rng(seed + 1);
  const core::Assignment assignment =
      core::block_assignment(blocks, m, assign_rng);
  core::ListScheduleOptions ls_options;
  util::Rng prio_rng(seed + 2);
  const auto priorities = core::descendant_priorities(inst, prio_rng, jobs);
  ls_options.priorities = priorities;
  const core::Schedule schedule =
      core::list_schedule(inst, assignment, m, ls_options);

  // Stage 4: C1 (parallel over directions).
  {
    StageResult s;
    s.name = "comm_cost_c1";
    std::uint64_t ref_sum = 0;
    s.reference_seconds = time_stage(reps, ref_sum, [&] {
      return core::comm_cost_c1_reference(inst, assignment).cross_edges;
    });
    std::uint64_t serial_sum = 0;
    s.serial_seconds = time_stage(reps, serial_sum, [&] {
      return core::comm_cost_c1(inst, assignment, 1).cross_edges;
    });
    s.parallel_seconds = time_stage(reps, s.checksum, [&] {
      return core::comm_cost_c1(inst, assignment, jobs).cross_edges;
    });
    s.identical = ref_sum == serial_sum && serial_sum == s.checksum;
    stages.push_back(s);
    print_stage(s);
  }

  // Stage 5: C2 (flat sort-based accumulation vs the map reference).
  {
    StageResult s;
    s.name = "comm_cost_c2";
    auto pack = [](const core::C2Cost& c) {
      std::uint64_t hash = fnv1a_mix(14695981039346656037ull, c.total_delay);
      hash = fnv1a_mix(hash, c.max_step_degree);
      return fnv1a_mix(hash, c.busy_steps);
    };
    std::uint64_t ref_sum = 0;
    s.reference_seconds = time_stage(reps, ref_sum, [&] {
      return pack(core::comm_cost_c2_reference(inst, schedule));
    });
    s.serial_seconds = time_stage(reps, s.checksum, [&] {
      return pack(core::comm_cost_c2(inst, schedule));
    });
    s.parallel_seconds = s.serial_seconds;  // C2 accumulation is serial
    s.identical = ref_sum == s.checksum;
    stages.push_back(s);
    print_stage(s);
  }

  const std::string path = cli.str("json");
  if (!write_json(path, mesh_name, scale, inst, jobs, trials, stages)) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("[json] report written to %s\n", path.c_str());

  bool ok = validate_json(path, stages);
  for (const StageResult& s : stages) ok = ok && s.identical;
  if (!ok) {
    std::fprintf(stderr,
                 "FATAL: pipeline output diverges from the serial reference\n");
    return 1;
  }
  double ref_total = 0.0;
  double par_total = 0.0;
  for (const StageResult& s : stages) {
    if (!s.in_pipeline) continue;
    ref_total += s.reference_seconds;
    par_total += s.parallel_seconds;
  }
  std::printf("[total] end-to-end: reference %.4fs, pipeline %.4fs "
              "(%.2fx), all stages byte-identical\n",
              ref_total, par_total,
              par_total > 0.0 ? ref_total / par_total : 0.0);
  return 0;
}
