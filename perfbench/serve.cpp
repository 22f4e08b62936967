// serve-cold and serve-mixed: the daemon as sweep_serve runs it (metrics
// armed, default cache options, Chrome tracing off outside the traced
// windows), in this process, over its Unix socket.
//
//  - serve-cold: a closed loop of one client; every request carries a
//    fresh seed, so every request misses the cache and the time goes to
//    ServeService's compute path (core engine + C1/C2 on a small graph).
//  - serve-mixed: an open loop at a fixed Poisson arrival rate over
//    Zipf-skewed keys, a share of want_starts requests, and a hot swap
//    between two artifacts with different content hashes at fixed
//    intervals. Hits dominate, so framing, wire, cache and swap are what
//    is measured; latency counts from when each request was due.
//
// Set-up (repeated, median reported): mesh, DAG, two partitions per
// artifact, exact descendants, pack + write + map_file of both artifacts,
// daemon start, client connections and the cache warm-up. The measured
// phase runs in windows (see measure_windows).
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "pipeline.hpp"
#include "core/assignment.hpp"
#include "core/comm_cost.hpp"
#include "core/list_scheduler.hpp"
#include "core/lower_bounds.hpp"
#include "core/priorities.hpp"
#include "core/validate.hpp"
#include "obs/metrics.hpp"
#include "partition/graph.hpp"
#include "partition/multilevel.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sweep/artifact.hpp"
#include "sweep/instance.hpp"

namespace perfbench {
namespace {

using namespace sweep;

constexpr double kServeScale = 0.4;  // tetonly at 0.4: ~2.1k cells x 24
constexpr std::size_t kPartCounts[] = {16, 64};
/// Set-ups per run; setup_s and pack_s are medians of the kSetupsKept
/// least stolen.
constexpr int kSetupRepeats = 15;
constexpr std::size_t kSetupsKept = 9;
constexpr double kLatencyLimitUs = 25'000.0;
constexpr std::uint64_t kClientTimeoutMs = 30'000;
constexpr std::size_t kCheckedKeys = 12;

/// How a workload's measured phase is cut into windows: how many, how many
/// of them (the least stolen) the end-to-end figures pool, and how many
/// in-process recomputes follow each window per (scheme, random m) pair.
struct WindowPlan {
  std::size_t windows;
  std::size_t kept;
  std::size_t recomputes_per_pair;
};
/// serve-cold: windows of about a second, so a burst of steal costs few of
/// them; at 30 s the kept half pools about 1.6k answers.
constexpr WindowPlan kColdPlan{30, 15, 1};
/// serve-mixed: one swap per window, so the window length is the swap
/// cadence; at 30 s the kept windows pool about 3k answers. Both plans
/// recompute each pair 30 times per run.
constexpr WindowPlan kMixedPlan{10, 5, 3};
/// In-process ServeService::handle replays of traced requests.
constexpr std::size_t kColdReplay = 24;
constexpr std::size_t kMixedReplay = 256;

// serve-mixed load shape: assumptions, not observed traffic (the basis of
// each is in perfbench/README.md). At 200 req/s even a stretch of pure
// misses (~12 ms each on nproc connections) keeps the daemon under
// saturation, so a swap's misses show up as miss latency in the tail rather
// than as a backlog whose length swings with host speed. One swap falls in
// the middle of every window, so all windows carry the same load.
constexpr double kArrivalsPerS = 200.0;
constexpr std::size_t kKeySpace = 64;
constexpr double kZipfExponent = 1.3;
constexpr double kWantStartsShare = 0.1;
constexpr std::size_t kHotKeysWarmed = 48;
/// How long before a due time the generator stops sleeping and spins.
constexpr std::chrono::microseconds kSpinLead{300};

struct Variant {
  std::uint32_t m;
  std::int64_t partition;
};
constexpr Variant kVariants[] = {{16, -1}, {64, -1}, {256, -1}, {1, 0}, {1, 1}};

SchemeId scheme_id(serve::Scheme scheme) {
  switch (scheme) {
    case serve::Scheme::kLevel: return SchemeId::kLevel;
    case serve::Scheme::kRandomDelay: return SchemeId::kRandomDelay;
    case serve::Scheme::kDescendant: return SchemeId::kDescendant;
  }
  return SchemeId::kLevel;
}

/// Query number `index` of a key stream: schemes and variants cycle, the
/// seed is split from the stream's base.
serve::QueryRequest make_query(std::uint64_t base, std::uint64_t index) {
  serve::QueryRequest query;
  query.scheme = static_cast<serve::Scheme>(index % 3);
  const Variant& v = kVariants[(index / 3) % std::size(kVariants)];
  query.m = v.m;
  query.partition = v.partition;
  query.seed = util::split_seed(base, index);
  return query;
}

serve::Request wrap(const serve::QueryRequest& query) {
  serve::Request request;
  request.type = serve::MsgType::kQuery;
  request.query = query;
  return request;
}

/// The artifact family both serve workloads run on: one instance, packed
/// twice with differently seeded partitions (same task graph, different
/// content hash) so swaps alternate between two artifacts.
struct Family {
  Front front;
  std::vector<dag::ArtifactPartition> partitions[2];
  std::string paths[2] = {"a.sweepart", "b.sweepart"};
  std::size_t artifact_bytes = 0;
  std::int64_t edge_cut = 0;
  double imbalance = 0.0;
  double pack_s = 0.0;  // descendants + pack + write + map_file of artifact a
  double lb_tasks = 0.0;
  double lb_depth = 0.0;
};

Family build_family(std::uint64_t seed) {
  Family family;
  family.front = build_front(kServeScale, seed);
  const dag::SweepInstance& instance = *family.front.instance;
  const partition::Graph& graph = family.front.graph;
  const Stream part_streams[2] = {Stream::kPartitioner, Stream::kSwapPartitioner};
  for (int a = 0; a < 2; ++a) {
    for (const std::size_t parts : kPartCounts) {
      partition::MultilevelOptions options;
      options.n_parts = parts;
      options.seed = stream_seed(seed, part_streams[a]);
      family.partitions[a].push_back(
          {parts, layer("partition.blocks", [&] {
             return partition::multilevel_partition(graph, options);
           })});
    }
  }
  family.edge_cut = partition::edge_cut(graph, family.partitions[0][0].assignment);
  family.imbalance = partition::imbalance(
      graph, family.partitions[0][0].assignment, kPartCounts[0]);

  const auto t0 = Clock::now();
  compute_descendants(instance);
  for (int a = 0; a < 2; ++a) {
    dag::ArtifactWriteOptions options;
    options.directions = &family.front.dirs;
    options.partitions = &family.partitions[a];
    options.include_descendants = true;
    std::size_t bytes = 0;
    (void)pack_to_file(instance, options, family.paths[a], bytes);
    if (a == 0) {
      family.pack_s = seconds_since(t0);
      family.artifact_bytes = bytes;
    }
  }
  family.lb_tasks = static_cast<double>(instance.n_tasks());
  family.lb_depth = static_cast<double>(
      std::max(instance.n_directions(), instance.max_depth()));
  return family;
}

/// LB = max{nk/m, k, D} for the processor count a query runs on.
double lower_bound(const Family& family, const serve::QueryRequest& query) {
  const double m =
      query.partition >= 0
          ? static_cast<double>(kPartCounts[static_cast<std::size_t>(query.partition)])
          : static_cast<double>(query.m);
  return std::max(family.lb_tasks / m, family.lb_depth);
}

/// The daemon, configured as sweep_serve configures it.
struct Daemon {
  std::unique_ptr<serve::ServeService> service;
  std::unique_ptr<serve::Server> server;

  Daemon(const std::string& artifact, std::size_t connections) {
    // Default cache options and metrics armed (main), as in sweep_serve.
    service = std::make_unique<serve::ServeService>(
        dag::Artifact::map_file(artifact), serve::ScheduleCacheOptions{});
    serve::ServerOptions options;
    options.socket_path = "serve.sock";
    // Each connection holds one pool worker for its lifetime; with at most
    // nproc connections this is sweep_serve's default of nproc workers.
    options.threads = std::max(core_count(), connections);
    server = std::make_unique<serve::Server>(*service, options);
    server->start();
  }
  ~Daemon() { server->stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
};

std::vector<serve::Client> connect(std::size_t n) {
  std::vector<serve::Client> clients;
  for (std::size_t i = 0; i < n; ++i) {
    clients.emplace_back("serve.sock", serve::ClientOptions{kClientTimeoutMs});
  }
  return clients;
}

/// One client-side request outcome (the answer's scalars, no start array).
struct Sample {
  std::int64_t id = -1;  ///< request id, also the req arg of its spans
  serve::QueryRequest query;
  bool swap = false;
  bool ok = false;
  double latency_us = 0.0;  ///< from when the request was due
  double late_us = 0.0;     ///< how late it was sent
  double lower_bound = 0.0;
  serve::QueryResponse answer;
};

/// Sends `request` on `client`, timing it from `due`, and checks the answer:
/// status ok and, for a query, makespan >= LB and starts present exactly
/// when asked for.
Sample send(serve::Client& client, const serve::Request& request,
             std::int64_t id, const Family& family, Clock::time_point due,
             Tally& tally) {
  Sample sample;
  sample.id = id;
  sample.query = request.query;
  sample.swap = request.type == serve::MsgType::kSwap;
  const auto sent = Clock::now();
  serve::Response response;
  try {
    response = layer("bench.client.call", "req", id,
                     [&] { return client.call(request); });
  } catch (const std::exception& e) {
    response.status = 1;
    response.error = e.what();
  }
  const auto done = Clock::now();
  sample.latency_us = seconds_between(due, done) * 1e6;
  sample.late_us = seconds_between(due, sent) * 1e6;
  if (sample.swap) {
    sample.ok = response.status == 0;
    tally.record(sample.ok, "swap failed: " + response.error);
    return sample;
  }
  sample.lower_bound = lower_bound(family, sample.query);
  const std::size_t want =
      sample.query.want_starts ? static_cast<std::size_t>(family.lb_tasks) : 0;
  sample.ok = response.status == 0 &&
              static_cast<double>(response.query.makespan) >= sample.lower_bound &&
              response.query.starts.size() == want;
  tally.record(sample.ok, "query failed or wrong: " + response.error);
  sample.answer = std::move(response.query);
  sample.answer.starts = {};
  return sample;
}

/// In-process recompute of one query through the core API, following the
/// bit-identity recipe in serve/service.hpp.
struct Recompute {
  core::Schedule schedule;
  core::C1Cost c1;
  core::C2Cost c2;
  std::uint64_t hash = 0;
  double seconds = 0.0;
};

Recompute recompute(const Family& family, int artifact,
                    const serve::QueryRequest& query) {
  const dag::SweepInstance& instance = *family.front.instance;
  Recompute out;
  const auto t0 = Clock::now();
  util::Rng rng(query.seed);
  core::Assignment assignment;
  std::size_t m = query.m;
  if (query.partition >= 0) {
    const dag::ArtifactPartition& part =
        family.partitions[artifact][static_cast<std::size_t>(query.partition)];
    assignment = part.assignment;
    m = part.n_parts;
  } else {
    assignment = layer("core.random_assignment", [&] {
      return core::random_assignment(instance.n_cells(), m, rng);
    });
  }
  const SchemeId id = scheme_id(query.scheme);
  out.schedule = layer("bench.scheme_schedule", "scheme",
                       static_cast<std::int64_t>(id), [&] {
    std::vector<std::int64_t> priorities;
    switch (id) {
      case SchemeId::kLevel:
        priorities = core::level_priorities(instance);
        break;
      case SchemeId::kRandomDelay:
        priorities = core::random_delay_priorities(
            instance, core::random_delays(instance.n_directions(), rng));
        break;
      default:
        priorities = core::descendant_priorities(instance, rng);
        break;
    }
    core::ListScheduleOptions options;
    options.priorities = priorities;
    return core::list_schedule(instance, assignment, m, options);
  });
  out.c1 = layer("core.comm_c1",
                 [&] { return core::comm_cost_c1(instance, assignment); });
  out.c2 = layer("core.comm_c2",
                 [&] { return core::comm_cost_c2(instance, out.schedule); });
  out.seconds = seconds_since(t0);
  out.hash = schedule_hash(out.schedule);
  return out;
}

bool same_schedule(const serve::QueryResponse& answer, const Recompute& mine) {
  return answer.schedule_hash == mine.hash &&
         answer.makespan == mine.schedule.makespan() &&
         answer.c1_cross_edges == mine.c1.cross_edges &&
         answer.c2_total_delay == mine.c2.total_delay;
}

/// Untimed checks on `queries` against the live daemon serving artifact
/// `artifact`: each answer's hash and costs equal an in-process recompute,
/// the recomputed schedule validates, and the daemon's first and repeated
/// (cached) answers are byte-identical to the cold answer of a cache-less
/// in-process service.
void check_keys(const Family& family, int artifact,
                const std::vector<serve::QueryRequest>& queries,
                serve::Client& client, Result& result) {
  serve::ScheduleCacheOptions no_cache;
  no_cache.max_entries = 0;
  serve::ServeService cold(dag::Artifact::map_file(family.paths[artifact]),
                           no_cache);
  bool first_rd = true;
  for (const serve::QueryRequest& query : queries) {
    const serve::Request request = wrap(query);
    const serve::Response first = client.call(request);
    const serve::Response hit = client.call(request);
    const std::vector<std::byte> reference =
        serve::encode_response(cold.handle(request));
    const Recompute mine = recompute(family, artifact, query);
    const core::ValidationResult valid = layer("core.validate", [&] {
      return core::validate_schedule(*family.front.instance, mine.schedule);
    });
    result.tally.record(valid.ok, "recomputed schedule invalid: " + valid.error);
    result.tally.record(first.status == 0 && hit.status == 0 &&
                            serve::encode_response(first) == reference &&
                            serve::encode_response(hit) == reference,
                        "daemon answer (cold or cached) differs from the "
                        "cold in-process answer");
    result.tally.record(same_schedule(first.query, mine),
                        "daemon schedule differs from the in-process recompute");
    if (first_rd && query.scheme == serve::Scheme::kRandomDelay) {
      first_rd = false;
      result.facts["core.makespan"] = static_cast<double>(mine.schedule.makespan());
      result.facts["core.lower_bound"] = lower_bound(family, query);
      result.facts["core.idle_slots"] =
          static_cast<double>(mine.schedule.idle_slots());
    }
  }
}

/// Replays `requests` through an in-process service with the default cache
/// (serve.handle spans carry the same request id as the client spans).
void replay_handle(const Family& family, int artifact,
                   const std::vector<std::pair<std::int64_t, serve::Request>>& requests) {
  serve::ServeService service(dag::Artifact::map_file(family.paths[artifact]));
  for (const auto& [id, request] : requests) {
    (void)layer("serve.handle", "req", id,
                [&] { return service.handle(request); });
  }
}

std::uint64_t stats_entry(const serve::Response& stats, const std::string& key) {
  for (const auto& [name, value] : stats.stats.entries) {
    if (name == key) return value;
  }
  return 0;
}

/// Daemon-side per-layer facts from two stats frames bracketing the
/// reported windows: phase histograms (the registry is reset at their
/// start) and cache counter deltas.
void stats_facts(const serve::Response& before, const serve::Response& after,
                 Result& result) {
  for (const serve::StatsHistogram& h : after.stats.histograms) {
    for (const char* phase :
         {"decode", "lookup", "schedule", "cost", "encode", "write", "request"}) {
      if (h.name == std::string("serve.") + phase + "_ns") {
        result.facts[std::string("serve.") + phase + "_p50_us"] =
            static_cast<double>(h.p50) / 1e3;
        result.facts[std::string("serve.") + phase + "_p99_us"] =
            static_cast<double>(h.p99) / 1e3;
      }
    }
  }
  for (const char* counter :
       {"hits", "misses", "inflight_waits", "evictions", "invalidations"}) {
    const std::string key = std::string("serve.cache.") + counter;
    result.facts[key] =
        static_cast<double>(stats_entry(after, key) - stats_entry(before, key));
  }
  const double hits = result.facts["serve.cache.hits"];
  const double decided = hits + result.facts["serve.cache.misses"];
  result.facts["serve.cache.hit_rate_pct"] = decided > 0 ? 100.0 * hits / decided : 0.0;
  result.facts["serve.cache.bytes"] =
      static_cast<double>(stats_entry(after, "serve.cache.bytes"));
}

/// One load window: its request outcomes, wall time and the share of CPU
/// time the hypervisor stole during it.
struct Window {
  std::vector<Sample> samples;
  double elapsed_s = 0.0;
  double steal = 0.0;
};

/// In-process recompute times per (scheme, random m) pair.
using PairTimes =
    std::map<std::pair<serve::Scheme, std::uint32_t>, std::vector<double>>;

struct WindowStats {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double slo_pct = 0.0;
  std::uint64_t queries = 0;
};

/// Figures over the pooled queries of `windows[indices]`.
WindowStats pooled_stats(const std::vector<Window>& windows,
                         const std::vector<std::size_t>& indices) {
  std::vector<double> latency;
  std::size_t ok = 0;
  std::size_t within = 0;
  double elapsed_s = 0.0;
  for (const std::size_t w : indices) {
    elapsed_s += windows[w].elapsed_s;
    for (const Sample& s : windows[w].samples) {
      if (s.swap) continue;
      latency.push_back(s.latency_us);
      ok += s.ok;
      within += s.ok && s.latency_us <= kLatencyLimitUs;
    }
  }
  WindowStats stats;
  stats.queries = latency.size();
  stats.qps = elapsed_s > 0 ? static_cast<double>(ok) / elapsed_s : 0.0;
  stats.p50_us = quantile(latency, 0.5);
  stats.p99_us = quantile(latency, 0.99);
  stats.slo_pct = latency.empty() ? 0.0
                                  : 100.0 * static_cast<double>(within) /
                                        static_cast<double>(latency.size());
  return stats;
}

/// Recomputes `per_pair` of the window's random-m queries per (scheme, m)
/// pair in process (their answers do not depend on which
/// artifact of the family served them), times them for schedule_s, and
/// checks each against the daemon's answer.
void recompute_batch(const Family& family, const Window& window,
                     std::size_t per_pair, PairTimes& times, Tally& tally) {
  std::map<std::pair<serve::Scheme, std::uint32_t>, std::size_t> done;
  for (const Sample& s : window.samples) {
    if (s.swap || !s.ok || s.query.partition >= 0) continue;
    std::size_t& count = done[{s.query.scheme, s.query.m}];
    if (count == per_pair) continue;
    ++count;
    const Recompute mine = recompute(family, 0, s.query);
    times[{s.query.scheme, s.query.m}].push_back(mine.seconds);
    tally.record(same_schedule(s.answer, mine),
                 "daemon schedule differs from the in-process recompute");
  }
}

/// The repeated set-up shared by both workloads: build, pack, start the
/// daemon, connect, warm up. Keeps the last repetition's products.
struct Stage {
  Family family;
  std::unique_ptr<Daemon> daemon;
  std::vector<serve::Client> clients;
};

template <class Warm>
Stage set_up(const Options& options, std::size_t n_clients, Warm&& warm,
             Result& result) {
  Stage stage;
  std::vector<double> setup_s;
  std::vector<double> pack_s;
  std::vector<double> steal;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const bool last = r + 1 == kSetupRepeats;
    if (last && options.trace) obs::start_tracing();
    stage.clients.clear();
    stage.daemon.reset();
    const CpuTicks ticks = cpu_ticks();
    const auto t0 = Clock::now();
    stage.family = build_family(options.seed);
    stage.daemon = std::make_unique<Daemon>(stage.family.paths[0], n_clients);
    stage.clients = connect(n_clients);
    warm(stage, result.tally);
    setup_s.push_back(seconds_since(t0));
    steal.push_back(steal_share(ticks, cpu_ticks()));
    pack_s.push_back(stage.family.pack_s);
    if (last && options.trace) obs::stop_tracing();
  }
  const std::vector<std::size_t> kept = least_stolen(steal, kSetupsKept);
  result.set("setup_s", median(pick(setup_s, kept)), "s", kept.size());
  result.set("pack_s", median(pick(pack_s, kept)), "s", kept.size());
  const Family& family = stage.family;
  result.facts["sweep.edges"] = static_cast<double>(family.front.instance->total_edges());
  result.facts["sweep.dropped_edges"] =
      static_cast<double>(family.front.build_stats.total_dropped_edges);
  result.facts["sweep.artifact_bytes"] = static_cast<double>(family.artifact_bytes);
  result.facts["partition.edge_cut"] = static_cast<double>(family.edge_cut);
  result.facts["partition.imbalance"] = family.imbalance;
  result.facts["core.n_tasks"] = family.lb_tasks;
  return stage;
}

/// Runs `body(client_index)` on one thread per client and joins them.
template <class F>
void on_clients(std::size_t n, F&& body) {
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n; ++c) threads.emplace_back([&, c] { body(c); });
  for (std::thread& t : threads) t.join();
}

/// The measured phase of both workloads: plan.windows load windows, each
/// followed by an untimed in-process recompute batch. The end-to-end
/// figures pool the plan.kept windows in which the hypervisor stole the
/// least CPU time, so a stretch of host noise does not move them. In trace
/// mode the odd windows are traced and reported, and the even ones, which
/// carry the same load, are the untraced side of obs.trace_overhead_pct.
/// Returns the samples of the reported windows.
template <class Load>
std::vector<Sample> measure_windows(const Options& options, const WindowPlan& plan,
                                    Stage& stage, Load&& load, Result& result) {
  std::vector<Window> windows;
  PairTimes recompute_s;
  obs::MetricsRegistry::instance().reset();
  const serve::Response before = stage.clients[0].stats();
  for (std::size_t w = 0; w < plan.windows; ++w) {
    const bool traced = options.trace && w % 2 == 1;
    if (traced) obs::start_tracing();
    const CpuTicks ticks = cpu_ticks();
    Window window = load(w);
    window.steal = steal_share(ticks, cpu_ticks());
    const WindowStats stats = pooled_stats({window}, {0});
    std::fprintf(stderr,
                 "%s window %zu: %.1f answers/s, p50 %.1f us, p99 %.1f us, "
                 "%.2f%% within limit, steal %.1f%%\n",
                 options.workload.c_str(), w, stats.qps, stats.p50_us,
                 stats.p99_us, stats.slo_pct, 100.0 * window.steal);
    recompute_batch(stage.family, window, plan.recomputes_per_pair, recompute_s,
                    result.tally);
    if (traced) obs::stop_tracing();
    windows.push_back(std::move(window));
  }
  stats_facts(before, stage.clients[0].stats(), result);

  std::vector<std::size_t> reported;
  std::vector<std::size_t> untraced;
  if (options.trace) {
    for (std::size_t w = 0; w < plan.windows; ++w) {
      (w % 2 ? reported : untraced).push_back(w);
    }
  } else {
    std::vector<double> steal;
    for (const Window& w : windows) steal.push_back(w.steal);
    reported = least_stolen(steal, plan.kept);
  }
  std::vector<Sample> samples;
  std::vector<double> steal_kept;
  for (const std::size_t w : reported) {
    samples.insert(samples.end(), windows[w].samples.begin(), windows[w].samples.end());
    steal_kept.push_back(100.0 * windows[w].steal);
  }
  // schedule_s is the mean over the (scheme, m) pairs of each pair's lower
  // quartile over every window of the run. On a shared VM the host flips
  // between a fast and a slow state for stretches longer than a recompute
  // (one and the same query took about 6 ms, then 8.3 ms, twice in a row
  // each time), so a pair's median jumps with the share of the run the host
  // spent slow; its lower quartile stays in the fast state while the host
  // spends a quarter of the run there. The pairs' times form separate
  // clusters, so a quantile over all of them would jump between clusters.
  std::vector<double> pair_times;
  std::uint64_t recomputes = 0;
  for (const auto& [pair, times] : recompute_s) {
    pair_times.push_back(quantile(times, 0.25));
    recomputes += times.size();
  }
  const WindowStats stats = pooled_stats(windows, reported);

  // Schedule quality: the mean over distinct random-delay keys, so a few
  // hot keys do not stand for the whole key space.
  std::map<std::tuple<std::uint64_t, std::uint32_t, std::int64_t>, const Sample*>
      rd_keys;
  std::vector<double> late;
  std::vector<double> swap_ms;
  for (const Sample& s : samples) {
    late.push_back(s.late_us);
    if (s.swap) {
      swap_ms.push_back((s.latency_us - s.late_us) / 1e3);
      continue;
    }
    if (s.ok && s.query.scheme == serve::Scheme::kRandomDelay) {
      rd_keys.emplace(std::make_tuple(s.query.seed, s.query.m, s.query.partition), &s);
    }
  }
  std::vector<double> ratio;
  std::vector<double> c1;
  std::vector<double> c2;
  for (const auto& [key, s] : rd_keys) {
    ratio.push_back(static_cast<double>(s->answer.makespan) / s->lower_bound);
    c1.push_back(static_cast<double>(s->answer.c1_cross_edges) /
                 static_cast<double>(std::max<std::uint64_t>(1, s->answer.c1_total_edges)));
    c2.push_back(static_cast<double>(s->answer.c2_total_delay));
  }
  result.set("qps", stats.qps, "1/s", stats.queries);
  result.set("latency_p50_us", stats.p50_us, "us", stats.queries);
  result.set("latency_p99_us", stats.p99_us, "us", stats.queries);
  result.set("slo_pct", stats.slo_pct, "%", stats.queries);
  result.set("makespan_over_lb", mean(ratio), "ratio", ratio.size());
  result.set("c1_cross_fraction", mean(c1), "ratio", c1.size());
  result.set("c2_total_delay", mean(c2), "steps", c2.size());
  result.set("schedule_s", mean(pair_times), "s", recomputes);
  result.facts["serve.latency_samples"] = static_cast<double>(stats.queries);
  result.facts["bench.steal_pct_kept"] = mean(steal_kept);
  result.facts["serve.generator_late_p50_us"] = quantile(late, 0.5);
  result.facts["serve.generator_late_p99_us"] = quantile(late, 0.99);
  result.facts["serve.swap_ms"] = median(swap_ms);
  if (options.trace) {
    result.facts["obs.untraced_p50_us"] = pooled_stats(windows, untraced).p50_us;
    result.facts["obs.traced_p50_us"] = stats.p50_us;
  }
  return samples;
}

/// Ends a workload: untimed key checks against the daemon, the traced
/// in-process handle() replay, shutdown and clean-up.
void finish(const Options& options, Stage& stage, int served,
            const std::vector<serve::QueryRequest>& checked,
            const std::vector<std::pair<std::int64_t, serve::Request>>& replay,
            Result& result) {
  if (options.trace) obs::start_tracing();
  check_keys(stage.family, served, checked, stage.clients[0], result);
  if (options.trace) replay_handle(stage.family, served, replay);
  stage.clients.clear();
  stage.daemon.reset();
  for (const std::string& path : stage.family.paths) std::remove(path.c_str());
}

}  // namespace

Result run_serve_cold(const Options& options) {
  Result result;
  // One client: the compute path fans priorities and C1 out over the global
  // pool, so concurrent queries contend for the same cores, and their tail
  // latency then follows how their parallel phases happen to overlap.
  const std::size_t n_clients = 1;
  const std::uint64_t base = stream_seed(options.seed, Stream::kColdQueries);

  Stage stage = set_up(options, n_clients, [&](Stage& s, Tally& tally) {
    // Warm-up: two cold queries per connection, from their own stream.
    const std::uint64_t warm_base = stream_seed(options.seed, Stream::kWarmQueries);
    for (std::size_t c = 0; c < s.clients.size(); ++c) {
      for (std::uint64_t j = 0; j < 2; ++j) {
        (void)send(s.clients[c], wrap(make_query(warm_base, 2 * c + j)), -1,
                    s.family, Clock::now(), tally);
      }
    }
  }, result);

  // Closed loop; every request's seed is new, so every request misses.
  std::atomic<std::uint64_t> next{0};
  const double window_s = options.seconds / kColdPlan.windows;
  const auto load = [&](std::size_t) {
    std::vector<Window> per_client(n_clients);
    std::vector<Tally> tallies(n_clients);
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(window_s));
    on_clients(n_clients, [&](std::size_t c) {
      while (Clock::now() < end) {
        const std::uint64_t i = next.fetch_add(1);
        per_client[c].samples.push_back(
            send(stage.clients[c], wrap(make_query(base, i)),
                  static_cast<std::int64_t>(i), stage.family, Clock::now(),
                  tallies[c]));
      }
    });
    Window window;
    window.elapsed_s = seconds_since(t0);
    for (std::size_t c = 0; c < n_clients; ++c) {
      window.samples.insert(window.samples.end(), per_client[c].samples.begin(),
                            per_client[c].samples.end());
      result.tally.merge(tallies[c]);
    }
    return window;
  };
  const std::vector<Sample> samples =
      measure_windows(options, kColdPlan, stage, load, result);

  // Checks: a spread sample of the reported requests, re-asked now that
  // the load has stopped; the replay covers the first traced requests.
  std::vector<serve::QueryRequest> checked;
  for (std::size_t j = 0; j < kCheckedKeys && !samples.empty(); ++j) {
    serve::QueryRequest q = samples[j * samples.size() / kCheckedKeys].query;
    q.want_starts = j % 2 == 1;
    checked.push_back(q);
  }
  std::vector<std::pair<std::int64_t, serve::Request>> replay;
  for (std::size_t j = 0; j < kColdReplay && j < samples.size(); ++j) {
    replay.emplace_back(samples[j].id, wrap(samples[j].query));
  }
  finish(options, stage, 0, checked, replay, result);
  return result;
}

Result run_serve_mixed(const Options& options) {
  Result result;
  const std::size_t n_clients = core_count();
  const std::uint64_t key_base = stream_seed(options.seed, Stream::kKeys);

  Stage stage = set_up(options, n_clients, [&](Stage& s, Tally& tally) {
    // Cache warm-up: the hottest keys once each, spread over the clients.
    std::vector<Tally> tallies(s.clients.size());
    on_clients(s.clients.size(), [&](std::size_t c) {
      for (std::size_t r = c; r < kHotKeysWarmed; r += s.clients.size()) {
        (void)send(s.clients[c], wrap(make_query(key_base, r)), -1, s.family,
                    Clock::now(), tallies[c]);
      }
    });
    for (const Tally& t : tallies) tally.merge(t);
  }, result);
  const Family& family = stage.family;

  // The whole request stream, drawn up front: Poisson arrivals, Zipf keys
  // and want_starts flags each from their own stream, plus a swap to the
  // other artifact in the middle of every window (artifact a is served
  // first).
  const double window_s = options.seconds / kMixedPlan.windows;
  std::vector<double> cdf(kKeySpace);
  double total = 0.0;
  for (std::size_t r = 0; r < kKeySpace; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  std::vector<double> due_s;
  std::vector<serve::Request> stream;
  {
    util::Rng arrivals(stream_seed(options.seed, Stream::kArrivals));
    util::Rng zipf(stream_seed(options.seed, Stream::kZipf));
    util::Rng starts(stream_seed(options.seed, Stream::kStarts));
    double next_swap = window_s / 2;
    int target = 1;
    for (double t = arrivals.next_exponential(kArrivalsPerS); t < options.seconds;
         t += arrivals.next_exponential(kArrivalsPerS)) {
      for (; next_swap <= t; next_swap += window_s, target = 1 - target) {
        serve::Request swap;
        swap.type = serve::MsgType::kSwap;
        swap.swap.path = family.paths[target];
        due_s.push_back(next_swap);
        stream.push_back(swap);
      }
      const auto rank = static_cast<std::uint64_t>(
          std::lower_bound(cdf.begin(), cdf.end(), zipf.next_double()) -
          cdf.begin());
      serve::QueryRequest query =
          make_query(key_base, std::min<std::uint64_t>(rank, kKeySpace - 1));
      query.want_starts = starts.next_bool(kWantStartsShare);
      due_s.push_back(t);
      stream.push_back(wrap(query));
    }
  }

  // Open loop: window w replays the stream entries due in its slice of
  // time. Each client takes the next entry, waits for its due time, and
  // times the answer from it.
  int served = 0;  // artifact the daemon serves
  const auto load = [&](std::size_t w) {
    const double from = static_cast<double>(w) * window_s;
    const auto first = static_cast<std::size_t>(
        std::lower_bound(due_s.begin(), due_s.end(), from) - due_s.begin());
    const auto last = static_cast<std::size_t>(
        std::lower_bound(due_s.begin(), due_s.end(), from + window_s) -
        due_s.begin());
    std::vector<Window> per_client(n_clients);
    std::vector<Tally> tallies(n_clients);
    std::atomic<std::size_t> next{first};
    const auto t0 = Clock::now();
    on_clients(n_clients, [&](std::size_t c) {
      // The default 50 us timer slack would make every due time late.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (std::size_t i = next.fetch_add(1); i < last; i = next.fetch_add(1)) {
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(due_s[i] - from));
        // Sleep to just before the due time, then spin: a timer wake-up on
        // a virtual machine is tens of microseconds late, and by a margin
        // that swings with host load, which would otherwise be counted as
        // hit latency.
        std::this_thread::sleep_until(due - kSpinLead);
        while (Clock::now() < due) {
        }
        per_client[c].samples.push_back(
            send(stage.clients[c], stream[i], static_cast<std::int64_t>(i),
                  family, due, tallies[c]));
      }
    });
    Window window;
    window.elapsed_s = seconds_since(t0);
    for (std::size_t c = 0; c < n_clients; ++c) {
      for (const Sample& s : per_client[c].samples) {
        if (s.swap && s.ok) served = 1 - served;
      }
      window.samples.insert(window.samples.end(), per_client[c].samples.begin(),
                            per_client[c].samples.end());
      result.tally.merge(tallies[c]);
    }
    return window;
  };
  const std::vector<Sample> samples =
      measure_windows(options, kMixedPlan, stage, load, result);
  {
    // Encoded query responses are fixed-width except for the start array.
    serve::Response scalar;
    scalar.type = serve::MsgType::kQuery;
    const auto base_bytes =
        static_cast<double>(serve::encode_response(scalar).size());
    std::vector<double> bytes;
    for (const Sample& s : samples) {
      if (!s.swap) {
        bytes.push_back(base_bytes + (s.query.want_starts ? 4.0 * family.lb_tasks : 0.0));
      }
    }
    result.facts["serve.response_bytes"] = mean(bytes);
  }

  // Checks on hot and tail keys of the artifact now served; the ranks cover
  // every scheme and every variant.
  constexpr std::uint64_t kCheckedRanks[kCheckedKeys] = {0,  1,  2,  3,  4,  5,
                                                         7,  11, 17, 29, 53, 61};
  std::vector<serve::QueryRequest> checked;
  for (std::size_t j = 0; j < kCheckedKeys; ++j) {
    serve::QueryRequest q = make_query(key_base, kCheckedRanks[j]);
    q.want_starts = j % 2 == 1;
    checked.push_back(q);
  }
  std::vector<std::pair<std::int64_t, serve::Request>> replay;
  for (const Sample& s : samples) {
    if (!s.swap) replay.emplace_back(s.id, stream[static_cast<std::size_t>(s.id)]);
  }
  std::sort(replay.begin(), replay.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  replay.resize(std::min(replay.size(), kMixedReplay));
  finish(options, stage, served, checked, replay, result);
  return result;
}

}  // namespace perfbench
