// offline-paper: the in-process path a transport-code developer runs, at the
// paper's scale. One pass is
//
//   MeshZoo tetonly(1.0) -> build_instance_parallel(S_4, k = 24)
//   -> partition_into_blocks(64) -> block_assignment(m = 512)
//   -> run_algorithm(level | Alg 2 | descendant | DFDS) -> C1 / C2
//
// (schedule_s), then the operator's pack of that instance: exact descendant
// counts, pack_artifact with the block partition, write, Artifact::map_file
// (pack_s). Passes repeat until --seconds of measured time; every schedule
// is validated outside the timed region.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "pipeline.hpp"
#include "core/algorithms.hpp"
#include "core/assignment.hpp"
#include "core/comm_cost.hpp"
#include "core/list_scheduler.hpp"
#include "core/lower_bounds.hpp"
#include "core/priorities.hpp"
#include "core/validate.hpp"
#include "partition/graph.hpp"
#include "partition/multilevel.hpp"
#include "sweep/artifact.hpp"
#include "sweep/instance.hpp"

namespace perfbench {
namespace {

using namespace sweep;

constexpr double kPaperScale = 1.0;
constexpr double kWarmupScale = 0.4;
constexpr std::size_t kBlockSize = 64;
constexpr std::size_t kProcessors = 512;
/// Set-ups per run; setup_s is the median of the kSetupsKept least stolen.
/// One set-up takes about 65 ms, so the repeats span about 3 s and a stretch
/// of host noise shorter than that moves few of them.
constexpr int kSetupRepeats = 45;
constexpr std::size_t kSetupsKept = 27;
/// Time-to-schedule limit of one scheme query (run_algorithm + C2) at paper
/// scale; slo_pct is the share of queries within it. The slowest scheme
/// takes about 0.4 s on a 4-vCPU Xeon (AVX2), so the limit is missed only
/// when a query gets about 2.5x slower: slo_pct reads 100 on a healthy run.
constexpr double kQueryLimitS = 1.0;
/// The processor draw of block_assignment and the schemes' rng streams are
/// pinned rather than taken from --seed: with ~1 block per processor the
/// makespan is set by the most loaded processor, whose block count swings
/// between 4 and 7 from one draw to the next. Pinning the draw makes the
/// schedule-quality metrics move with the code, while --seed still varies
/// the mesh jitter and the partitioner (and so every block's cells).
constexpr std::uint64_t kAssignmentSeed = 2005;
constexpr std::uint64_t kSchemeSeed = 512;

struct Scheme {
  const char* name;
  core::Algorithm algorithm;
  SchemeId id;
};

constexpr Scheme kSchemes[] = {
    {"level", core::Algorithm::kLevelPriorities, SchemeId::kLevel},
    {"random_delay", core::Algorithm::kRandomDelayPriorities,
     SchemeId::kRandomDelay},
    {"descendant", core::Algorithm::kDescendantPriorities,
     SchemeId::kDescendant},
    {"dfds", core::Algorithm::kDfdsPriorities, SchemeId::kDfds},
};
constexpr std::size_t kAlg2 = 1;  // index of random_delay in kSchemes

/// Everything one pass produced, kept for the untimed checks.
struct Pass {
  double schedule_s = 0.0;
  double pack_s = 0.0;
  std::vector<double> query_s;  // per scheme: run_algorithm + C2
  Front front;
  partition::Partition blocks;
  std::int64_t edge_cut = 0;
  double imbalance = 0.0;
  core::Assignment assignment;
  std::vector<util::Rng> scheme_rng;  // each scheme's rng before its run
  std::vector<core::Schedule> schedules;
  core::C1Cost c1;
  std::vector<core::C2Cost> c2;
  std::size_t artifact_bytes = 0;
  std::shared_ptr<const dag::Artifact> artifact;
};

Pass run_pass(double scale, std::uint64_t seed, const std::string& path) {
  Pass pass;
  const auto t0 = Clock::now();
  pass.front = build_front(scale, seed);
  const dag::SweepInstance& instance = *pass.front.instance;
  const partition::Graph& graph = pass.front.graph;
  partition::MultilevelOptions part_options;
  part_options.seed = stream_seed(seed, Stream::kPartitioner);
  pass.blocks = layer("partition.blocks", [&] {
    return partition::partition_into_blocks(graph, kBlockSize, part_options);
  });
  const std::size_t n_blocks =
      (instance.n_cells() + kBlockSize - 1) / kBlockSize;
  util::Rng assign_rng(kAssignmentSeed);
  pass.assignment = layer("core.block_assignment", [&] {
    return core::block_assignment(pass.blocks, kProcessors, assign_rng);
  });
  for (const Scheme& scheme : kSchemes) {
    util::Rng rng(
        util::split_seed(kSchemeSeed, static_cast<std::uint64_t>(scheme.id)));
    pass.scheme_rng.push_back(rng);
    const auto q0 = Clock::now();
    pass.schedules.push_back(layer(
        "bench.scheme_schedule", "scheme", static_cast<std::int64_t>(scheme.id),
        [&] {
          return core::run_algorithm(scheme.algorithm, instance, kProcessors,
                                     rng, pass.assignment);
        }));
    pass.c2.push_back(layer("core.comm_c2", [&] {
      return core::comm_cost_c2(instance, pass.schedules.back());
    }));
    pass.query_s.push_back(seconds_since(q0));
  }
  pass.c1 = layer("core.comm_c1", [&] {
    return core::comm_cost_c1(instance, pass.assignment);
  });
  const auto t1 = Clock::now();
  pass.schedule_s = seconds_between(t0, t1);

  compute_descendants(instance);
  const std::vector<dag::ArtifactPartition> partitions = {
      {static_cast<std::uint64_t>(n_blocks), pass.blocks}};
  dag::ArtifactWriteOptions write_options;
  write_options.directions = &pass.front.dirs;
  write_options.partitions = &partitions;
  write_options.include_descendants = true;
  pass.artifact =
      pack_to_file(instance, write_options, path, pass.artifact_bytes);
  pass.pack_s = seconds_since(t1);

  pass.edge_cut = partition::edge_cut(graph, pass.blocks);
  pass.imbalance = partition::imbalance(graph, pass.blocks, n_blocks);
  return pass;
}

/// The priorities run_algorithm computed for `scheme`, rebuilt from the
/// scheme's rng as it was before the run (same stream consumption).
std::vector<std::int64_t> rebuild_priorities(const Scheme& scheme,
                                             const dag::SweepInstance& instance,
                                             const core::Assignment& assignment,
                                             util::Rng rng) {
  switch (scheme.id) {
    case SchemeId::kLevel:
      return core::level_priorities(instance);
    case SchemeId::kRandomDelay:
      return core::random_delay_priorities(
          instance, core::random_delays(instance.n_directions(), rng));
    case SchemeId::kDescendant:
      return core::descendant_priorities(instance, rng);
    case SchemeId::kDfds:
      return core::dfds_priorities(instance, assignment);
  }
  return {};
}

/// Untimed correctness checks of one pass. `reference` adds the bit-identity
/// check against list_schedule_reference (once per run); `sharded` adds the
/// sharded-engine run at jobs = nproc beside the serial Alg 2 schedule.
void check_pass(const Pass& pass, bool reference, bool sharded, Tally& tally) {
  const dag::SweepInstance& instance = *pass.front.instance;
  const double lb = core::compute_lower_bounds(instance, kProcessors).value();
  for (std::size_t s = 0; s < std::size(kSchemes); ++s) {
    const Scheme& scheme = kSchemes[s];
    const core::Schedule& schedule = pass.schedules[s];
    const core::ValidationResult valid = layer(
        "core.validate", [&] { return core::validate_schedule(instance, schedule); });
    tally.record(valid.ok, std::string(scheme.name) + ": invalid schedule: " +
                               valid.error);
    tally.record(static_cast<double>(schedule.makespan()) >= lb,
                 std::string(scheme.name) + ": makespan below lower bound");
    if (!reference && !(sharded && s == kAlg2)) continue;
    const std::vector<std::int64_t> priorities = rebuild_priorities(
        scheme, instance, pass.assignment, pass.scheme_rng[s]);
    core::ListScheduleOptions options;
    options.priorities = priorities;
    if (reference) {
      const core::Schedule oracle = layer("core.list_schedule_reference", [&] {
        return core::list_schedule_reference(instance, pass.assignment,
                                             kProcessors, options);
      });
      tally.record(schedule_hash(oracle) == schedule_hash(schedule),
                   std::string(scheme.name) +
                       ": schedule differs from list_schedule_reference");
    }
    if (sharded && s == kAlg2) {
      options.jobs = core_count();
      const core::Schedule parallel = layer("core.list_schedule_sharded", [&] {
        return core::list_schedule(instance, pass.assignment, kProcessors,
                                   options);
      });
      tally.record(schedule_hash(parallel) == schedule_hash(schedule),
                   "sharded engine schedule differs from the serial engine");
    }
  }
  const dag::Artifact& artifact = *pass.artifact;
  bool artifact_ok = artifact.n_tasks() == instance.n_tasks() &&
                     artifact.n_edges() == instance.total_edges() &&
                     artifact.has_descendants() && artifact.n_partitions() == 1;
  for (std::size_t i = 0; artifact_ok && i < instance.n_directions(); ++i) {
    const std::vector<std::uint64_t>& counts = instance.exact_descendant_counts(i);
    const auto packed = artifact.descendant_counts(i);
    artifact_ok = std::equal(counts.begin(), counts.end(), packed.begin(),
                             packed.end());
  }
  tally.record(artifact_ok, "artifact does not round-trip the instance");
}

/// Per-pass figures. Each pass gives its own query-latency quantiles and
/// rate (with four queries a pass, its p99 is its slowest), and the run
/// reports their medians over the least-stolen half of the passes.
struct PhaseStats {
  std::vector<double> schedule_s;
  std::vector<double> pack_s;
  std::vector<double> qps;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> steal;    // share of CPU time stolen during the pass
  std::vector<double> query_s;  // every query, for slo_pct

  /// The passes the run reports: the least-stolen half, rounded up.
  [[nodiscard]] std::vector<std::size_t> kept() const {
    return least_stolen(steal, (steal.size() + 1) / 2);
  }
};

/// Passes until `seconds` of measured pass time (at least one pass).
/// `on_pass` sees each pass before it is dropped.
template <class F>
PhaseStats measure(const Options& options, double seconds,
                   const std::string& path, F&& on_pass) {
  PhaseStats stats;
  double measured = 0.0;
  do {
    const CpuTicks ticks = cpu_ticks();
    Pass pass = run_pass(kPaperScale, options.seed, path);
    stats.steal.push_back(steal_share(ticks, cpu_ticks()));
    stats.schedule_s.push_back(pass.schedule_s);
    stats.pack_s.push_back(pass.pack_s);
    double query_time_s = 0.0;
    for (const double q : pass.query_s) {
      stats.query_s.push_back(q);
      query_time_s += q;
    }
    stats.qps.push_back(static_cast<double>(pass.query_s.size()) / query_time_s);
    stats.p50_us.push_back(quantile(pass.query_s, 0.5) * 1e6);
    stats.p99_us.push_back(quantile(pass.query_s, 0.99) * 1e6);
    measured += pass.schedule_s + pass.pack_s;
    std::fprintf(stderr,
                 "offline-paper pass: schedule %.3f s, pack %.3f s, queries "
                 "%.3f %.3f %.3f %.3f s, steal %.1f%%\n",
                 pass.schedule_s, pass.pack_s, pass.query_s[0], pass.query_s[1],
                 pass.query_s[2], pass.query_s[3], 100.0 * stats.steal.back());
    on_pass(pass);
  } while (measured < seconds);
  return stats;
}

}  // namespace

Result run_offline(const Options& options) {
  Result result;
  const std::string path = "offline.sweepart";

  // Set-up: everything before the first timed pass. A reduced-scale pass of
  // the same pipeline warms the thread pool, the allocator and the page
  // cache; repeated, and the median of the least stolen reported.
  std::vector<double> setup_s;
  std::vector<double> setup_steal;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const CpuTicks ticks = cpu_ticks();
    const auto t0 = Clock::now();
    (void)run_pass(kWarmupScale, options.seed, path);
    setup_s.push_back(seconds_since(t0));
    setup_steal.push_back(steal_share(ticks, cpu_ticks()));
  }
  const std::vector<std::size_t> setups_kept = least_stolen(setup_steal, kSetupsKept);

  // Every pass is checked; the first reported pass also against the
  // reference engine (and, traced, the sharded engine) and is kept.
  std::optional<Pass> kept;
  const auto check_and_keep_first = [&](Pass& pass) {
    const bool first = !kept;
    check_pass(pass, first, first && options.trace, result.tally);
    if (first) kept.emplace(std::move(pass));
  };
  PhaseStats stats;
  if (options.trace) {
    // Untraced half, then the traced half; obs.trace_overhead_pct compares
    // their median pass times.
    const PhaseStats untraced =
        measure(options, options.seconds / 2, path, [&](Pass& pass) {
          check_pass(pass, false, false, result.tally);
        });
    obs::start_tracing();
    stats = measure(options, options.seconds / 2, path, check_and_keep_first);
    result.facts["obs.untraced_schedule_s"] =
        median(pick(untraced.schedule_s, untraced.kept()));
    result.facts["obs.traced_schedule_s"] = median(pick(stats.schedule_s, stats.kept()));
  } else {
    stats = measure(options, options.seconds, path, check_and_keep_first);
  }
  std::remove(path.c_str());

  const Pass& pass = *kept;
  const dag::SweepInstance& instance = *pass.front.instance;
  const core::Schedule& alg2 = pass.schedules[kAlg2];
  const double lb = core::compute_lower_bounds(instance, kProcessors).value();
  std::vector<double> within;
  for (const double q : stats.query_s) within.push_back(q <= kQueryLimitS);

  const std::vector<std::size_t> kept_passes = stats.kept();
  const std::uint64_t n = kept_passes.size();
  result.set("setup_s", median(pick(setup_s, setups_kept)), "s", setups_kept.size());
  result.set("schedule_s", median(pick(stats.schedule_s, kept_passes)), "s", n);
  result.set("pack_s", median(pick(stats.pack_s, kept_passes)), "s", n);
  result.set("makespan_over_lb", static_cast<double>(alg2.makespan()) / lb,
             "ratio");
  result.set("c1_cross_fraction", pass.c1.fraction(), "ratio");
  result.set("c2_total_delay", static_cast<double>(pass.c2[kAlg2].total_delay),
             "steps");
  const std::uint64_t queries = n * std::size(kSchemes);
  result.set("qps", median(pick(stats.qps, kept_passes)), "1/s", queries);
  result.set("latency_p50_us", median(pick(stats.p50_us, kept_passes)), "us", queries);
  result.set("latency_p99_us", median(pick(stats.p99_us, kept_passes)), "us", queries);
  result.set("slo_pct", 100.0 * mean(within), "%", within.size());

  result.facts["sweep.edges"] = static_cast<double>(instance.total_edges());
  result.facts["sweep.dropped_edges"] =
      static_cast<double>(pass.front.build_stats.total_dropped_edges);
  result.facts["sweep.artifact_bytes"] = static_cast<double>(pass.artifact_bytes);
  result.facts["partition.edge_cut"] = static_cast<double>(pass.edge_cut);
  result.facts["partition.imbalance"] = pass.imbalance;
  result.facts["core.n_tasks"] = static_cast<double>(instance.n_tasks());
  result.facts["core.makespan"] = static_cast<double>(alg2.makespan());
  result.facts["core.lower_bound"] = lb;
  result.facts["core.idle_slots"] = static_cast<double>(alg2.idle_slots());
  result.facts["bench.steal_pct_kept"] = 100.0 * mean(pick(stats.steal, kept_passes));
  return result;
}

}  // namespace perfbench
