// Tests for the sweep_serve stack: wire-protocol round trips and
// malformed-frame rejection; ServeService request handling — bit-identity
// of query responses against the in-process scheduling path, error statuses
// that keep the daemon alive, hot swap through a kSwap request, and the
// schedule cache; and (ServeSocket) the same contracts end to end, through
// serve::Client against a real Server on a Unix socket.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/assignment.hpp"
#include "core/comm_cost.hpp"
#include "core/list_scheduler.hpp"
#include "core/priorities.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/schedule_cache.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sweep/artifact.hpp"
#include "sweep/random_dag.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace sweep::serve {
namespace {

TEST(Wire, RequestRoundTripsEveryType) {
  {
    Request r;
    r.type = MsgType::kPing;
    EXPECT_EQ(decode_request(encode_request(r)).type, MsgType::kPing);
  }
  {
    Request r;
    r.type = MsgType::kQuery;
    r.query.scheme = Scheme::kDescendant;
    r.query.m = 12;
    r.query.seed = 0xfeedfaceULL;
    r.query.partition = 3;
    r.query.want_starts = true;
    const Request back = decode_request(encode_request(r));
    EXPECT_EQ(back.type, MsgType::kQuery);
    EXPECT_EQ(back.query.scheme, Scheme::kDescendant);
    EXPECT_EQ(back.query.m, 12u);
    EXPECT_EQ(back.query.seed, 0xfeedfaceULL);
    EXPECT_EQ(back.query.partition, 3);
    EXPECT_TRUE(back.query.want_starts);
  }
  {
    Request r;
    r.type = MsgType::kSwap;
    r.swap.path = "/tmp/with spaces and\nnewlines.sweepart";
    const Request back = decode_request(encode_request(r));
    EXPECT_EQ(back.type, MsgType::kSwap);
    EXPECT_EQ(back.swap.path, r.swap.path);
  }
  for (const MsgType t : {MsgType::kInfo, MsgType::kStats, MsgType::kShutdown}) {
    Request r;
    r.type = t;
    EXPECT_EQ(decode_request(encode_request(r)).type, t);
  }
}

TEST(Wire, ResponseRoundTrips) {
  {
    Response r;
    r.status = 0;
    r.type = MsgType::kInfo;
    r.info.name = "tet mesh";
    r.info.n_cells = 100;
    r.info.n_directions = 8;
    r.info.n_edges = 421;
    r.info.content_hash = 0x1234567890abcdefULL;
    r.info.n_partitions = 2;
    r.info.has_descendants = true;
    const Response back = decode_response(encode_response(r));
    EXPECT_EQ(back.info.name, "tet mesh");
    EXPECT_EQ(back.info.n_edges, 421u);
    EXPECT_EQ(back.info.content_hash, r.info.content_hash);
    EXPECT_TRUE(back.info.has_descendants);
  }
  {
    Response r;
    r.status = 0;
    r.type = MsgType::kQuery;
    r.query.makespan = 77;
    r.query.c1_cross_edges = 5;
    r.query.c1_total_edges = 9;
    r.query.c2_total_delay = 3;
    r.query.schedule_hash = 42;
    r.query.starts = {0, 1, 2, 7};
    const Response back = decode_response(encode_response(r));
    EXPECT_EQ(back.query.makespan, 77u);
    EXPECT_EQ(back.query.starts, r.query.starts);
  }
  {
    Response r;
    r.status = 0;
    r.type = MsgType::kStats;
    r.stats.entries = {{"serve.queries", 10}, {"serve.swaps", 1}};
    const Response back = decode_response(encode_response(r));
    EXPECT_EQ(back.stats.entries, r.stats.entries);
  }
  {
    Response r;  // a query answered without starts: an empty array field
    r.status = 0;
    r.type = MsgType::kQuery;
    r.query.makespan = 5;
    r.query.schedule_hash = 9;
    const Response back = decode_response(encode_response(r));
    EXPECT_TRUE(back.query.starts.empty());
    EXPECT_EQ(back.query.makespan, 5u);
    EXPECT_EQ(back.query.schedule_hash, 9u);
  }
  {
    Response r;  // error responses carry only the message
    r.status = 2;
    r.type = MsgType::kQuery;
    r.error = "no such partition";
    const Response back = decode_response(encode_response(r));
    EXPECT_EQ(back.status, 2u);
    EXPECT_EQ(back.error, "no such partition");
  }
}

TEST(Wire, MalformedFramesAreRejected) {
  EXPECT_THROW(decode_request({}), WireError);
  EXPECT_THROW(decode_response({}), WireError);

  Request query;
  query.type = MsgType::kQuery;
  const std::vector<std::byte> valid = encode_request(query);
  // Every strict prefix of a valid frame is truncated.
  for (std::size_t keep = 0; keep < valid.size(); ++keep) {
    EXPECT_THROW(
        decode_request(std::span<const std::byte>(valid.data(), keep)),
        WireError)
        << "prefix " << keep;
  }
  // Trailing bytes are malformed, not forward-compatible.
  std::vector<std::byte> padded = valid;
  padded.push_back(std::byte{0});
  EXPECT_THROW(decode_request(padded), WireError);
  // Unknown message type (0 and out-of-range).
  for (const std::uint32_t bad : {0u, 7u, 4096u}) {
    std::vector<std::byte> frame(4);
    std::memcpy(frame.data(), &bad, 4);
    EXPECT_THROW(decode_request(frame), WireError);
  }
  // Out-of-range scheme in an otherwise intact query.
  std::vector<std::byte> bad_scheme = valid;
  const std::uint32_t scheme = 3;
  std::memcpy(bad_scheme.data() + 4, &scheme, 4);
  EXPECT_THROW(decode_request(bad_scheme), WireError);
  // A string length that claims more bytes than the frame holds.
  Request swap;
  swap.type = MsgType::kSwap;
  swap.swap.path = "x";
  std::vector<std::byte> lying = encode_request(swap);
  const std::uint32_t huge = 1u << 20;
  std::memcpy(lying.data() + 4, &huge, 4);
  EXPECT_THROW(decode_request(lying), WireError);
}

// ---------------------------------------------------------------------------
// Stats wire v2 evolution. The pre-bump (v1) stats payload was exactly:
//   u32 status, u32 type, u64 count, count x (u32 len + bytes, u64 value)
// The helpers below ARE that old peer, hand-rolled byte for byte, so the
// interop tests pin the published format rather than today's code.

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

/// What a pre-bump daemon put on the wire for a kStats response.
std::vector<std::byte> v1_encode_stats(
    const std::vector<std::pair<std::string, std::uint64_t>>& entries) {
  std::vector<std::byte> out;
  put_u32(out, 0);  // status ok
  put_u32(out, static_cast<std::uint32_t>(MsgType::kStats));
  put_u64(out, entries.size());
  for (const auto& [key, value] : entries) {
    put_u32(out, static_cast<std::uint32_t>(key.size()));
    const auto* p = reinterpret_cast<const std::byte*>(key.data());
    out.insert(out.end(), p, p + key.size());
    put_u64(out, value);
  }
  return out;
}

/// What a pre-bump client did with a kStats response: read count pairs,
/// reject trailing bytes. Throws std::runtime_error on any truncation.
std::vector<std::pair<std::string, std::uint64_t>> v1_decode_stats(
    std::span<const std::byte> bytes) {
  std::size_t pos = 0;
  const auto need = [&](std::size_t n) {
    if (bytes.size() - pos < n) throw std::runtime_error("v1: truncated");
  };
  const auto read_u32 = [&] {
    need(4);
    std::uint32_t v;
    std::memcpy(&v, bytes.data() + pos, 4);
    pos += 4;
    return v;
  };
  const auto read_u64 = [&] {
    need(8);
    std::uint64_t v;
    std::memcpy(&v, bytes.data() + pos, 8);
    pos += 8;
    return v;
  };
  if (read_u32() != 0) throw std::runtime_error("v1: error status");
  if (read_u32() != static_cast<std::uint32_t>(MsgType::kStats)) {
    throw std::runtime_error("v1: not stats");
  }
  const std::uint64_t count = read_u64();
  std::vector<std::pair<std::string, std::uint64_t>> entries;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t len = read_u32();
    need(len);
    std::string key(reinterpret_cast<const char*>(bytes.data() + pos), len);
    pos += len;
    entries.emplace_back(std::move(key), read_u64());
  }
  if (pos != bytes.size()) throw std::runtime_error("v1: trailing bytes");
  return entries;
}

TEST(WireV2, TypedViewsRoundTripExactly) {
  Response r;
  r.status = 0;
  r.type = MsgType::kStats;
  r.stats.proto_version = kStatsProtoVersion;
  r.stats.entries = {{"queries", 10}, {"swaps", 1}, {"errors", 2}};
  r.stats.gauges = {{"serve.open_connections", 3},
                    {"serve.inflight_requests", -1}};  // negatives survive
  StatsHistogram h;
  h.name = "serve.request_ns";
  h.count = 1000;
  h.p50 = 52000;
  h.p90 = 90000;
  h.p99 = 200000;
  h.p999 = 350000;
  h.max = 600000;
  r.stats.histograms = {h};

  const Response back = decode_response(encode_response(r));
  EXPECT_EQ(back.stats.proto_version, kStatsProtoVersion);
  EXPECT_EQ(back.stats.entries, r.stats.entries);
  EXPECT_EQ(back.stats.gauges, r.stats.gauges);
  EXPECT_EQ(back.stats.histograms, r.stats.histograms);
}

TEST(WireV2, Version1ResponseEncodesByteIdenticalToPreBumpWriter) {
  // A response that never sets proto_version >= 2 must hit the wire in the
  // exact pre-bump byte layout — no version entry, no namespaced keys.
  Response r;
  r.status = 0;
  r.type = MsgType::kStats;
  r.stats.entries = {{"queries", 7}, {"swaps", 0}};
  ASSERT_EQ(r.stats.proto_version, 1u);  // the default
  EXPECT_EQ(encode_response(r), v1_encode_stats(r.stats.entries));
}

TEST(WireV2, OldClientDecodesNewDaemon) {
  // The v1 decoder enforces expect_end(), so this passes only because the
  // new telemetry rides inside the count-prefixed list.
  Response r;
  r.status = 0;
  r.type = MsgType::kStats;
  r.stats.proto_version = kStatsProtoVersion;
  r.stats.entries = {{"queries", 5}};
  r.stats.gauges = {{"g", 1}};
  StatsHistogram h;
  h.name = "x";
  h.count = 2;
  r.stats.histograms = {h};

  const auto old_view = v1_decode_stats(encode_response(r));
  // 1 plain + 1 version + 1 gauge + 6 histogram fields.
  EXPECT_EQ(old_view.size(), 9u);
  EXPECT_EQ(old_view[0], (std::pair<std::string, std::uint64_t>{"queries", 5}));
  EXPECT_EQ(old_view[1].first, std::string(kStatsVersionKey));
  EXPECT_EQ(old_view[1].second, kStatsProtoVersion);
}

TEST(WireV2, NewClientDecodesOldDaemon) {
  const std::vector<std::pair<std::string, std::uint64_t>> legacy = {
      {"queries", 11}, {"swaps", 2}, {"errors", 0}};
  const Response back = decode_response(v1_encode_stats(legacy));
  EXPECT_EQ(back.status, 0u);
  EXPECT_EQ(back.stats.proto_version, 1u);  // never announced -> v1
  EXPECT_EQ(back.stats.entries, legacy);
  EXPECT_TRUE(back.stats.gauges.empty());
  EXPECT_TRUE(back.stats.histograms.empty());
}

TEST(WireV2, NonStatsEncodingsUnchanged) {
  // Pin the ping response layout byte for byte: the bump must not leak
  // into other message types.
  Response ping;
  ping.status = 0;
  ping.type = MsgType::kPing;
  std::vector<std::byte> expected;
  put_u32(expected, 0);
  put_u32(expected, static_cast<std::uint32_t>(MsgType::kPing));
  EXPECT_EQ(encode_response(ping), expected);

  // And a query request: u32 type, u32 scheme, u32 m, u64 seed,
  // i64 partition, u8 want_starts.
  Request query;
  query.type = MsgType::kQuery;
  query.query.scheme = Scheme::kRandomDelay;
  query.query.m = 6;
  query.query.seed = 99;
  query.query.partition = -1;
  query.query.want_starts = true;
  std::vector<std::byte> expected_q;
  put_u32(expected_q, static_cast<std::uint32_t>(MsgType::kQuery));
  put_u32(expected_q, static_cast<std::uint32_t>(Scheme::kRandomDelay));
  put_u32(expected_q, 6);
  put_u64(expected_q, 99);
  put_u64(expected_q, static_cast<std::uint64_t>(std::int64_t{-1}));
  expected_q.push_back(std::byte{1});
  EXPECT_EQ(encode_request(query), expected_q);
}

TEST(WireV2, HostileNamespacedKeysStayPlainEntries) {
  // Keys that look telemetry-ish but are not well-formed must neither
  // crash the decoder nor vanish — they stay visible as plain entries.
  const std::vector<std::pair<std::string, std::uint64_t>> hostile = {
      {"gauge.", 1},         // empty gauge name
      {"hist.", 2},          // bare prefix
      {"hist.x", 3},         // no suffix
      {"hist..p50", 4},      // empty histogram name
      {"hist.x.bogus", 5},   // unknown suffix
      {"histogram.x.p50", 6},  // wrong prefix
  };
  const Response back = decode_response(v1_encode_stats(hostile));
  EXPECT_EQ(back.stats.entries, hostile);
  EXPECT_TRUE(back.stats.gauges.empty());
  EXPECT_TRUE(back.stats.histograms.empty());

  // Duplicate well-formed keys: last write wins, nothing accumulates.
  const std::vector<std::pair<std::string, std::uint64_t>> dup = {
      {"hist.a.p50", 10}, {"hist.a.p50", 20}};
  const Response d = decode_response(v1_encode_stats(dup));
  ASSERT_EQ(d.stats.histograms.size(), 1u);
  EXPECT_EQ(d.stats.histograms[0].p50, 20u);
  EXPECT_TRUE(d.stats.entries.empty());
}

TEST(WireV2, TruncatedQuantileBlockIsRejected) {
  Response r;
  r.status = 0;
  r.type = MsgType::kStats;
  r.stats.proto_version = kStatsProtoVersion;
  r.stats.entries = {{"queries", 1}};
  StatsHistogram h;
  h.name = "serve.request_ns";
  h.count = 5;
  h.p50 = 100;
  r.stats.histograms = {h};
  const std::vector<std::byte> valid = encode_response(r);
  // Every strict prefix is truncated somewhere inside the v2 block.
  for (std::size_t keep = 8; keep < valid.size(); ++keep) {
    EXPECT_THROW(
        decode_response(std::span<const std::byte>(valid.data(), keep)),
        WireError)
        << "prefix " << keep;
  }
  // An absurd count that the remaining bytes cannot possibly satisfy.
  std::vector<std::byte> absurd = valid;
  const std::uint64_t huge = ~0ull;
  std::memcpy(absurd.data() + 8, &huge, 8);
  EXPECT_THROW(decode_response(absurd), WireError);
}

// ---------------------------------------------------------------------------
// ServeService

dag::SweepInstance make_instance() {
  return dag::random_instance(80, 3, 5, 1.8, 23);
}

ServeService make_service(
    const dag::SweepInstance& instance, bool descendants = true,
    ScheduleCacheOptions cache_options = {},
    const std::vector<dag::ArtifactPartition>* partitions = nullptr) {
  dag::ArtifactWriteOptions options;
  options.include_descendants = descendants;
  options.partitions = partitions;
  return ServeService(
      dag::Artifact::from_memory(dag::pack_artifact(instance, options)),
      cache_options);
}

/// Cache options that disable caching entirely — the cold reference path.
ScheduleCacheOptions no_cache() {
  ScheduleCacheOptions options;
  options.max_entries = 0;
  return options;
}

std::uint64_t entry_value(const StatsResponse& stats, const std::string& key) {
  for (const auto& [k, v] : stats.entries) {
    if (k == key) return v;
  }
  return 0;
}

Request query_request(Scheme scheme, std::uint32_t m, std::uint64_t seed,
                      bool want_starts = false) {
  Request request;
  request.type = MsgType::kQuery;
  request.query.scheme = scheme;
  request.query.m = m;
  request.query.seed = seed;
  request.query.want_starts = want_starts;
  return request;
}

/// What a query must answer, computed in-process by the recipe the daemon
/// promises to reproduce (serve/service.hpp).
struct Expected {
  std::uint64_t makespan = 0;
  std::uint64_t c1_cross = 0;
  std::uint64_t c2_delay = 0;
  std::uint64_t hash = 0;
  std::vector<core::TimeStep> starts;
};

Expected expected_query(const dag::SweepInstance& instance, Scheme scheme,
                        std::uint32_t m, std::uint64_t seed) {
  util::Rng rng(seed);
  const core::Assignment assignment =
      core::random_assignment(instance.n_cells(), m, rng);
  std::vector<std::int64_t> priorities;
  switch (scheme) {
    case Scheme::kLevel:
      priorities = core::level_priorities(instance);
      break;
    case Scheme::kRandomDelay: {
      const auto delays = core::random_delays(instance.n_directions(), rng);
      priorities = core::random_delay_priorities(instance, delays);
      break;
    }
    case Scheme::kDescendant:
      priorities = core::descendant_priorities(instance, rng);
      break;
  }
  core::ListScheduleOptions options;
  options.priorities = priorities;
  const core::Schedule schedule =
      core::list_schedule(instance, assignment, m, options);
  Expected e;
  e.makespan = schedule.makespan();
  e.c1_cross = core::comm_cost_c1(instance, assignment).cross_edges;
  e.c2_delay = core::comm_cost_c2(instance, schedule).total_delay;
  e.hash = util::fnv1a_span<core::TimeStep>(
      schedule.starts(),
      util::fnv1a_span<core::ProcessorId>(schedule.assignment()));
  e.starts = schedule.starts();
  return e;
}

/// Every scalar of `r` agrees with the in-process answer.
void expect_answers(const QueryResponse& r, const Expected& e) {
  EXPECT_EQ(r.makespan, e.makespan);
  EXPECT_EQ(r.c1_cross_edges, e.c1_cross);
  EXPECT_EQ(r.c2_total_delay, e.c2_delay);
  EXPECT_EQ(r.schedule_hash, e.hash);
}

const Scheme kSchemes[] = {Scheme::kLevel, Scheme::kRandomDelay,
                           Scheme::kDescendant};

TEST(ServeService, QueriesAreBitIdenticalToTheInProcessPath) {
  const dag::SweepInstance instance = make_instance();
  ServeService service = make_service(instance);
  for (const Scheme scheme : kSchemes) {
    const Response r =
        service.handle(query_request(scheme, 4, 99, /*want_starts=*/true));
    ASSERT_EQ(r.status, 0u) << r.error;
    const Expected e = expected_query(instance, scheme, 4, 99);
    expect_answers(r.query, e);
    EXPECT_EQ(r.query.starts, e.starts);
  }
  EXPECT_EQ(service.queries_served(), 3u);
  EXPECT_EQ(service.errors_returned(), 0u);
}

TEST(ServeService, LargestProcessorCountIsAnOrdinaryQuery) {
  // The wire accepts any u32 m. Scheduling memory is O(tasks) whatever m
  // is, so m = UINT32_MAX must answer OK, and with the same schedule as the
  // in-process path.
  const dag::SweepInstance instance = make_instance();
  ServeService service = make_service(instance, /*descendants=*/true,
                                      no_cache());
  const std::uint32_t m = std::numeric_limits<std::uint32_t>::max();
  for (const Scheme scheme : {Scheme::kLevel, Scheme::kDescendant}) {
    const Response r =
        service.handle(query_request(scheme, m, 5, /*want_starts=*/true));
    ASSERT_EQ(r.status, 0u) << r.error;
    const Expected e = expected_query(instance, scheme, m, 5);
    EXPECT_EQ(r.query.starts, e.starts);
    EXPECT_EQ(r.query.makespan, e.makespan);
  }
  EXPECT_EQ(service.errors_returned(), 0u);
}

TEST(ServeService, ErrorStatusesInsteadOfThrows) {
  const dag::SweepInstance instance = make_instance();
  ServeService service = make_service(instance, /*descendants=*/false);
  {
    const Response r = service.handle(query_request(Scheme::kLevel, 0, 1));
    EXPECT_NE(r.status, 0u);  // m == 0
    EXPECT_FALSE(r.error.empty());
  }
  {
    // Descendant scheme without the packed section.
    const Response r =
        service.handle(query_request(Scheme::kDescendant, 4, 1));
    EXPECT_NE(r.status, 0u);
  }
  {
    Request request = query_request(Scheme::kLevel, 4, 1);
    request.query.partition = 7;  // no partitions packed
    const Response r = service.handle(request);
    EXPECT_NE(r.status, 0u);
  }
  {
    Request request;
    request.type = MsgType::kSwap;
    request.swap.path = "/nonexistent/not.sweepart";
    const Response r = service.handle(request);
    EXPECT_NE(r.status, 0u);
    EXPECT_EQ(service.swaps_completed(), 0u);
  }
  // The service is still healthy after every error.
  EXPECT_EQ(service.handle(query_request(Scheme::kLevel, 4, 1)).status, 0u);
  EXPECT_GE(service.errors_returned(), 4u);
}

TEST(ServeService, InfoAndEmbeddedPartition) {
  const dag::SweepInstance instance = make_instance();
  dag::ArtifactPartition part;
  part.n_parts = 3;
  for (std::size_t v = 0; v < instance.n_cells(); ++v) {
    part.assignment.push_back(static_cast<std::uint32_t>(v % 3));
  }
  const std::vector<dag::ArtifactPartition> partitions = {part};
  ServeService service =
      make_service(instance, /*descendants=*/false, {}, &partitions);

  Request info;
  info.type = MsgType::kInfo;
  const Response i = service.handle(info);
  ASSERT_EQ(i.status, 0u);
  EXPECT_EQ(i.info.n_cells, instance.n_cells());
  EXPECT_EQ(i.info.n_partitions, 1u);
  EXPECT_FALSE(i.info.has_descendants);

  // Partition queries ignore m and schedule on the embedded assignment.
  Request request = query_request(Scheme::kLevel, 0, 5);
  request.query.partition = 0;
  const Response r = service.handle(request);
  ASSERT_EQ(r.status, 0u) << r.error;
  core::ListScheduleOptions schedule_options;
  const std::vector<std::int64_t> priorities =
      core::level_priorities(instance);
  schedule_options.priorities = priorities;
  const core::Schedule schedule =
      core::list_schedule(instance, part.assignment, 3, schedule_options);
  EXPECT_EQ(r.query.makespan, schedule.makespan());
}

TEST(ServeService, SwapInstallsTheNewArtifact) {
  const dag::SweepInstance inst_a = make_instance();
  const dag::SweepInstance inst_b = dag::random_instance(50, 2, 4, 1.5, 31);
  ServeService service = make_service(inst_a);
  const std::uint64_t hash_a = service.artifact()->content_hash();

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "swap_target.sweepart")
          .string();
  dag::save_artifact(inst_b, path);

  Request request;
  request.type = MsgType::kSwap;
  request.swap.path = path;
  const Response r = service.handle(request);
  ASSERT_EQ(r.status, 0u) << r.error;
  EXPECT_EQ(service.swaps_completed(), 1u);
  EXPECT_NE(service.artifact()->content_hash(), hash_a);
  EXPECT_EQ(service.artifact()->n_cells(), inst_b.n_cells());

  // Queries now answer for B.
  const Response q = service.handle(query_request(Scheme::kLevel, 2, 1));
  ASSERT_EQ(q.status, 0u);
  util::Rng rng(1);
  const core::Assignment assignment =
      core::random_assignment(inst_b.n_cells(), 2, rng);
  core::ListScheduleOptions options;
  const std::vector<std::int64_t> priorities = core::level_priorities(inst_b);
  options.priorities = priorities;
  EXPECT_EQ(q.query.makespan,
            core::list_schedule(inst_b, assignment, 2, options).makespan());
  std::filesystem::remove(path);
}

TEST(ServeService, PingStatsAndShutdownAck) {
  ServeService service = make_service(make_instance());
  Request ping;
  ping.type = MsgType::kPing;
  EXPECT_EQ(service.handle(ping).status, 0u);
  Request stats;
  stats.type = MsgType::kStats;
  const Response s = service.handle(stats);
  ASSERT_EQ(s.status, 0u);
  EXPECT_FALSE(s.stats.entries.empty());
  EXPECT_EQ(s.stats.proto_version, kStatsProtoVersion);
  Request shutdown;
  shutdown.type = MsgType::kShutdown;
  EXPECT_EQ(service.handle(shutdown).status, 0u);
}

TEST(ServeService, ArmedStatsCarryHistogramsAndQuality) {
  // Armed metrics: queries must feed the serve-phase histograms and the
  // quality.* stats, and handle_stats must serve them over wire v2. Under
  // an obs-off build the same request path must yield empty typed views.
  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(true);
  ServeService service = make_service(make_instance());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ASSERT_EQ(service.handle(query_request(Scheme::kLevel, 4, seed)).status,
              0u);
  }
  Request stats;
  stats.type = MsgType::kStats;
  const Response s = service.handle(stats);
  obs::set_metrics_enabled(false);
  ASSERT_EQ(s.status, 0u);
  EXPECT_EQ(s.stats.proto_version, kStatsProtoVersion);
#if !defined(SWEEP_OBS_DISABLE)
  bool found_schedule_hist = false;
  for (const auto& h : s.stats.histograms) {
    EXPECT_TRUE(h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.p999 &&
                h.p999 <= h.max)
        << h.name;
    if (h.name == "serve.schedule_ns") {
      found_schedule_hist = true;
      EXPECT_EQ(h.count, 5u);
      EXPECT_GT(h.p50, 0u);
    }
  }
  EXPECT_TRUE(found_schedule_hist);
  // The round-trip must preserve the views bit-exactly.
  const Response back = decode_response(encode_response(s));
  EXPECT_EQ(back.stats.entries, s.stats.entries);
  EXPECT_EQ(back.stats.gauges, s.stats.gauges);
  EXPECT_EQ(back.stats.histograms, s.stats.histograms);
  // Quality metrics landed in the in-process registry (not on the wire).
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  bool found_quality = false;
  for (const auto& v : snap.stats) {
    if (v.name == "quality.makespan_over_lb") {
      found_quality = true;
      EXPECT_EQ(v.count, 5u);
      EXPECT_GE(v.min, 1.0);  // a makespan can never beat the lower bound
    }
  }
  EXPECT_TRUE(found_quality);
#else
  EXPECT_TRUE(s.stats.histograms.empty());
  EXPECT_TRUE(s.stats.gauges.empty());
#endif
  obs::MetricsRegistry::instance().reset();
}

TEST(ServeService, ResponsesUnchangedByInstrumentation) {
  // The bytes a query puts on the wire must not depend on whether metrics
  // or tracing are armed: answer every scheme, plus one want_starts query,
  // with collection off, metrics armed, and metrics + tracing armed.
  ServeService service = make_service(make_instance(), true, no_cache());
  std::vector<Request> requests;
  for (const Scheme scheme : kSchemes) {
    requests.push_back(query_request(scheme, 4, 11));
  }
  requests.push_back(
      query_request(Scheme::kRandomDelay, 6, 12, /*want_starts=*/true));

  const auto answer_all = [&](bool metrics, bool tracing) {
    obs::MetricsRegistry::instance().reset();
    obs::clear_trace();
    obs::set_metrics_enabled(metrics);
    if (tracing) obs::start_tracing();
    std::vector<std::vector<std::byte>> bytes;
    for (const Request& request : requests) {
      const Response r = service.handle(request);
      EXPECT_EQ(r.status, 0u) << r.error;
      bytes.push_back(encode_response(r));
    }
    obs::stop_tracing();
    obs::set_metrics_enabled(false);
    return bytes;
  };
  const auto off = answer_all(false, false);
  EXPECT_EQ(answer_all(true, false), off);
  EXPECT_EQ(answer_all(true, true), off);
#if !defined(SWEEP_OBS_DISABLE)
  // The armed runs really recorded (so the identity above compared an
  // instrumented run, not a silently disarmed one).
  std::ostringstream trace;
  obs::write_trace_json(trace);
  EXPECT_NE(trace.str().find("serve.query"), std::string::npos);
#endif
  obs::MetricsRegistry::instance().reset();
  obs::clear_trace();
}

// ---------------------------------------------------------------------------
// ScheduleCache unit tests (DESIGN.md §15)

CacheKey test_key(std::uint64_t content_hash, std::uint64_t seed) {
  CacheKey key;
  key.content_hash = content_hash;
  key.scheme = 0;
  key.m = 4;
  key.partition = -1;
  key.seed = seed;
  return key;
}

ScheduleCache::Value test_payload(std::uint64_t makespan,
                                  std::size_t n_starts = 8) {
  auto payload = std::make_shared<QueryResponse>();
  payload->makespan = makespan;
  payload->schedule_hash = makespan * 31;
  payload->starts.assign(n_starts, 1);
  return payload;
}

TEST(ScheduleCache, SingleFlightCoalescesConcurrentProbes) {
  ScheduleCache cache{ScheduleCacheOptions{}};
  cache.invalidate(7);
  const CacheKey key = test_key(7, 1);

  constexpr int kThreads = 8;
  std::atomic<int> arrived{0};
  std::vector<std::future<std::uint64_t>> results;
  results.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    results.push_back(std::async(std::launch::async, [&] {
      arrived.fetch_add(1);
      ScheduleCache::Probe probe = cache.lookup_or_join(key);
      if (probe.kind == ScheduleCache::ProbeKind::kMiss) {
        // The leader waits for the pack so most others park on the
        // in-flight entry rather than hitting after the fill.
        while (arrived.load() < kThreads) std::this_thread::yield();
        probe.value = test_payload(42);
        cache.fill(std::move(probe.ticket), probe.value);
      }
      return probe.value->makespan;
    }));
  }
  for (auto& r : results) EXPECT_EQ(r.get(), 42u);

  const ScheduleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);  // exactly one computation
  EXPECT_EQ(stats.hits + stats.inflight_waits,
            static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ScheduleCache, LeaderFailurePropagatesToWaitersAndIsNotCached) {
  ScheduleCache cache{ScheduleCacheOptions{}};
  cache.invalidate(7);
  const CacheKey key = test_key(7, 2);

  ScheduleCache::Probe leader = cache.lookup_or_join(key);
  ASSERT_EQ(leader.kind, ScheduleCache::ProbeKind::kMiss);
  std::atomic<bool> parked{false};
  auto waiter = std::async(std::launch::async, [&] {
    parked.store(true);
    cache.lookup_or_join(key);  // throws the leader's exception
  });
  while (!parked.load()) std::this_thread::yield();
  cache.fail(std::move(leader.ticket),
             std::make_exception_ptr(std::runtime_error("boom")));
  try {
    waiter.get();
    FAIL() << "waiter should rethrow the leader's failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // Failures are never cached: the next probe is a fresh miss.
  ScheduleCache::Probe retry = cache.lookup_or_join(key);
  EXPECT_EQ(retry.kind, ScheduleCache::ProbeKind::kMiss);
  cache.fill(std::move(retry.ticket), test_payload(1));
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ScheduleCache, AbandonedTicketFailsWaitersInsteadOfHangingThem) {
  ScheduleCache cache{ScheduleCacheOptions{}};
  cache.invalidate(7);
  const CacheKey key = test_key(7, 3);
  std::optional<ScheduleCache::Probe> leader(cache.lookup_or_join(key));
  ASSERT_EQ(leader->kind, ScheduleCache::ProbeKind::kMiss);
  auto waiter = std::async(std::launch::async, [&] {
    // Parks on the leader's in-flight entry; the Ticket destructor must
    // wake it with an error — never leave it blocked forever.
    ScheduleCache::Probe probe = cache.lookup_or_join(key);
    if (probe.kind == ScheduleCache::ProbeKind::kMiss) {
      // Raced past the destruction and became a leader itself: resolve
      // the ticket so nothing leaks, and still report "did not hang".
      cache.fail(std::move(probe.ticket),
                 std::make_exception_ptr(std::runtime_error("late")));
      throw std::runtime_error("late");
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  leader.reset();  // unresolved Ticket unwinds — waiters must be failed
  EXPECT_THROW(waiter.get(), std::runtime_error);
}

TEST(ScheduleCache, EvictionRespectsEntryBound) {
  ScheduleCacheOptions options;
  options.max_entries = 8;
  options.shards = 1;  // single shard makes the bounds exact
  ScheduleCache cache{options};
  cache.invalidate(7);
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    ScheduleCache::Probe probe = cache.lookup_or_join(test_key(7, seed));
    ASSERT_EQ(probe.kind, ScheduleCache::ProbeKind::kMiss);
    cache.fill(std::move(probe.ticket), test_payload(seed));
  }
  const ScheduleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 8u);
  EXPECT_EQ(stats.evictions, 24u);
  // LRU: the most recent keys survived.
  EXPECT_EQ(cache.lookup_or_join(test_key(7, 31)).kind,
            ScheduleCache::ProbeKind::kHit);

  // The same bounds behind ServeService, with real schedule payloads: an
  // evicting cache still answers exactly what the cold path answers.
  ScheduleCacheOptions tiny = options;
  tiny.max_bytes = std::size_t{1} << 16;
  const dag::SweepInstance instance = make_instance();
  ServeService small = make_service(instance, true, tiny);
  ServeService cold = make_service(instance, true, no_cache());
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const Request request = query_request(Scheme::kLevel, 4, seed);
    EXPECT_EQ(encode_response(small.handle(request)),
              encode_response(cold.handle(request)))
        << "seed " << seed;
  }
  const ScheduleCacheStats served = small.cache_stats();
  EXPECT_LE(served.entries, 8u);
  EXPECT_LE(served.bytes, std::size_t{1} << 16);
  EXPECT_GT(served.evictions, 0u);
  const Request resident = query_request(Scheme::kLevel, 4, 63);
  EXPECT_EQ(encode_response(small.handle(resident)),
            encode_response(cold.handle(resident)));
}

TEST(ScheduleCache, EvictionRespectsByteBoundAndOversizedEntriesAreSkipped) {
  ScheduleCacheOptions options;
  options.max_entries = 1u << 20;
  options.max_bytes = 4096;
  options.shards = 1;
  ScheduleCache cache{options};
  cache.invalidate(7);
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    ScheduleCache::Probe probe = cache.lookup_or_join(test_key(7, seed));
    ASSERT_EQ(probe.kind, ScheduleCache::ProbeKind::kMiss);
    cache.fill(std::move(probe.ticket), test_payload(seed, /*n_starts=*/128));
  }
  ScheduleCacheStats stats = cache.stats();
  EXPECT_LE(stats.bytes, 4096u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.entries, 0u);

  // A payload bigger than the whole byte budget is never admitted (and
  // must not thrash out resident entries).
  const std::uint64_t resident = stats.entries;
  ScheduleCache::Probe big = cache.lookup_or_join(test_key(7, 999));
  ASSERT_EQ(big.kind, ScheduleCache::ProbeKind::kMiss);
  cache.fill(std::move(big.ticket), test_payload(999, /*n_starts=*/100'000));
  stats = cache.stats();
  EXPECT_EQ(stats.entries, resident);
  EXPECT_EQ(cache.lookup_or_join(test_key(7, 999)).kind,
            ScheduleCache::ProbeKind::kMiss);
}

TEST(ScheduleCache, InvalidateSweepsOldEpochAndDropsStaleFills) {
  ScheduleCache cache{ScheduleCacheOptions{}};
  cache.invalidate(1);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    ScheduleCache::Probe probe = cache.lookup_or_join(test_key(1, seed));
    cache.fill(std::move(probe.ticket), test_payload(seed));
  }
  EXPECT_EQ(cache.stats().entries, 6u);

  // A leader starts computing under hash 1, then the swap lands.
  ScheduleCache::Probe racing = cache.lookup_or_join(test_key(1, 100));
  ASSERT_EQ(racing.kind, ScheduleCache::ProbeKind::kMiss);
  cache.invalidate(2);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().invalidations, 6u);
  // The racing fill still wakes its waiters but is NOT admitted: its epoch
  // is stale, so the swap can never be beaten by an in-flight computation.
  cache.fill(std::move(racing.ticket), test_payload(100));
  EXPECT_EQ(cache.stats().entries, 0u);
  // New-epoch entries admit normally.
  ScheduleCache::Probe fresh = cache.lookup_or_join(test_key(2, 0));
  cache.fill(std::move(fresh.ticket), test_payload(0));
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ScheduleCache, DisabledCacheComputesEveryProbeWithInertTickets) {
  ScheduleCache cache{no_cache()};
  EXPECT_FALSE(cache.enabled());
  for (int i = 0; i < 3; ++i) {
    ScheduleCache::Probe probe = cache.lookup_or_join(test_key(7, 1));
    EXPECT_EQ(probe.kind, ScheduleCache::ProbeKind::kMiss);
    cache.fill(std::move(probe.ticket), test_payload(1));
  }
  const ScheduleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

// ---------------------------------------------------------------------------
// ServeService x ScheduleCache

TEST(ServeService, CacheHitIsByteIdenticalToTheColdPath) {
  const dag::SweepInstance instance = make_instance();
  ServeService cached = make_service(instance);
  ServeService cold = make_service(instance, true, no_cache());

  for (const Scheme scheme : kSchemes) {
    for (const bool want_starts : {false, true}) {
      const Request request = query_request(scheme, 4, 17, want_starts);
      const std::vector<std::byte> cold_bytes =
          encode_response(cold.handle(request));
      // First probe misses and computes; every later one must hit and
      // still put the exact same bytes on the wire.
      for (int round = 0; round < 3; ++round) {
        EXPECT_EQ(encode_response(cached.handle(request)), cold_bytes)
            << "scheme=" << static_cast<int>(scheme)
            << " want_starts=" << want_starts << " round=" << round;
      }
    }
  }
  const ScheduleCacheStats stats = cached.cache_stats();
  // 3 schemes x (1 miss + 5 hits): the want_starts=true probe hits the
  // entry its scalar twin filled — starts are cached unconditionally.
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 15u);
  EXPECT_EQ(stats.hit_rate_pct(), 83u);
}

TEST(ServeService, ConcurrentIdenticalQueriesComputeOnce) {
  ServeService service = make_service(make_instance());
  const Request request = query_request(Scheme::kLevel, 4, 5);
  const std::vector<std::byte> expected =
      encode_response(service.handle(request));  // warm reference

  ServeService hammered = make_service(make_instance());
  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&] {
        if (encode_response(hammered.handle(request)) != expected) {
          mismatches.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  const ScheduleCacheStats stats = hammered.cache_stats();
  EXPECT_EQ(stats.misses, 1u);  // single flight: one list_schedule total
  EXPECT_EQ(stats.hits + stats.inflight_waits,
            static_cast<std::uint64_t>(kThreads - 1));
}

TEST(ServeService, SwapUnderHammerServesZeroStaleResponses) {
  const dag::SweepInstance inst_a = make_instance();
  const dag::SweepInstance inst_b = dag::random_instance(50, 2, 4, 1.5, 31);
  const std::string path_b =
      (std::filesystem::path(::testing::TempDir()) / "hammer_b.sweepart")
          .string();
  dag::save_artifact(inst_b, path_b);

  // Cold references: the only two byte-exact answers a query may get.
  ServeService cold_a = make_service(inst_a, true, no_cache());
  ServeService cold_b(dag::Artifact::map_file(path_b), no_cache());
  constexpr std::uint64_t kSeeds = 4;
  std::vector<std::vector<std::byte>> expect_a, expect_b;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Request request = query_request(Scheme::kLevel, 4, seed);
    expect_a.push_back(encode_response(cold_a.handle(request)));
    expect_b.push_back(encode_response(cold_b.handle(request)));
    ASSERT_NE(expect_a.back(), expect_b.back());  // the test can detect staleness
  }

  ServeService service = make_service(inst_a);
  std::atomic<bool> go{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> hammer;
  for (int t = 0; t < 4; ++t) {
    hammer.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 200; ++i) {
        const auto seed = static_cast<std::uint64_t>((i + t) % kSeeds);
        const std::vector<std::byte> got = encode_response(
            service.handle(query_request(Scheme::kLevel, 4, seed)));
        // Snapshot consistency: every response is a full, correct answer
        // for ONE of the two artifacts — never a mix, never garbage.
        if (got != expect_a[seed] && got != expect_b[seed]) bad.fetch_add(1);
      }
    });
  }
  go.store(true);
  service.swap_to(path_b);
  for (auto& t : hammer) t.join();
  EXPECT_EQ(bad.load(), 0);

  // The swap has fully settled: every post-swap response must be B's —
  // a cached A-answer surviving here would be a stale serve.
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    EXPECT_EQ(encode_response(
                  service.handle(query_request(Scheme::kLevel, 4, seed))),
              expect_b[seed])
        << "stale response after swap, seed " << seed;
  }
  std::filesystem::remove(path_b);
}

TEST(ServeService, StatsCarryCacheCountersAndDisabledCacheOmitsThem) {
  ServeService service = make_service(make_instance());
  const Request request = query_request(Scheme::kLevel, 4, 9);
  ASSERT_EQ(service.handle(request).status, 0u);  // miss
  ASSERT_EQ(service.handle(request).status, 0u);  // hit
  Request stats_request;
  stats_request.type = MsgType::kStats;
  const Response s = service.handle(stats_request);
  ASSERT_EQ(s.status, 0u);
  EXPECT_EQ(entry_value(s.stats, "serve.cache.hits"), 1u);
  EXPECT_EQ(entry_value(s.stats, "serve.cache.misses"), 1u);
  EXPECT_EQ(entry_value(s.stats, "serve.cache.hit_rate_pct"), 50u);
  EXPECT_EQ(entry_value(s.stats, "serve.cache.entries"), 1u);
  EXPECT_GT(entry_value(s.stats, "serve.cache.bytes"), 0u);

  ServeService uncached = make_service(make_instance(), true, no_cache());
  EXPECT_FALSE(uncached.cache_enabled());
  ASSERT_EQ(uncached.handle(request).status, 0u);
  const Response u = uncached.handle(stats_request);
  for (const auto& [key, value] : u.stats.entries) {
    EXPECT_FALSE(key.starts_with("serve.cache.")) << key;
  }
}

// ---------------------------------------------------------------------------
// Server satellites: accept-errno classification, wire-error accounting,
// client receive deadline.

TEST(ServeServer, TransientAcceptErrnoClassification) {
  for (const int transient :
       {ECONNABORTED, EAGAIN, EMFILE, ENFILE, ENOBUFS, ENOMEM}) {
    EXPECT_TRUE(is_transient_accept_error(transient)) << transient;
  }
  for (const int fatal : {0, EBADF, EINVAL, ENOTSOCK, EOPNOTSUPP}) {
    EXPECT_FALSE(is_transient_accept_error(fatal)) << fatal;
  }
}

TEST(ServeServer, WireErrorsCountTowardTheStatsErrorsEntry) {
  // The invariant pinned here: the stats frame's `errors` entry counts
  // EVERY non-ok response the daemon puts on the wire — handler failures
  // AND malformed frames — so it agrees with serve.status.error.
  ServeService service = make_service(make_instance());
  ServerOptions options;
  options.socket_path =
      (std::filesystem::path(::testing::TempDir()) / "wire_err.sock").string();
  options.threads = 2;
#if !defined(SWEEP_OBS_DISABLE)
  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(true);
#endif
  Server server(service, options);
  server.start();

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);

  // A framed payload that cannot decode: WireError inside serve_connection.
  const std::vector<std::byte> garbage(3, std::byte{0xff});
  write_frame(fd, garbage);
  std::vector<std::byte> payload;
  ASSERT_TRUE(read_frame(fd, payload));
  EXPECT_NE(decode_response(payload).status, 0u);

  // Same connection, valid stats request: the error above must be visible.
  write_frame(fd, encode_request([] {
                Request r;
                r.type = MsgType::kStats;
                return r;
              }()));
  ASSERT_TRUE(read_frame(fd, payload));
  const Response stats = decode_response(payload);
  ASSERT_EQ(stats.status, 0u);
  EXPECT_EQ(entry_value(stats.stats, "errors"), 1u);
  EXPECT_EQ(service.errors_returned(), 1u);
#if !defined(SWEEP_OBS_DISABLE)
  // The two books agree: service-level errors == wire-level status.error.
  EXPECT_EQ(entry_value(stats.stats, "errors"),
            entry_value(stats.stats, "serve.status.error"));
  obs::set_metrics_enabled(false);
  obs::MetricsRegistry::instance().reset();
#endif
  ::close(fd);
  server.stop();
}

TEST(ServeClient, ReceiveDeadlineThrowsInsteadOfHangingForever) {
  // A daemon that accepts the connection into its listen backlog but never
  // reads: without a deadline, call() blocks forever.
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "stalled.sock").string();
  ::unlink(path.c_str());
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(lfd, 4), 0);

  ClientOptions client_options;
  client_options.timeout_ms = 200;
  Client client(path, client_options);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    client.ping();
    FAIL() << "expected a receive timeout";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
        << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
  ::close(lfd);
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// ServeSocket: every request goes through serve::Client to a real Server,
// in this process, so the tsan-concurrency preset instruments the whole
// stack: accept loop, connection jobs, cache, swap.

/// A thread whose body's exception (a refused connect, a torn frame) fails
/// the test instead of ending the process.
std::thread test_thread(std::function<void()> body) {
  return std::thread([body = std::move(body)] {
    try {
      body();
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what();
    }
  });
}

class ServeSocket : public ::testing::Test {
 protected:
  /// Starts a Server for `service` on a socket in the test temp dir.
  /// Declare the result after the service: destroying it stops the server.
  std::unique_ptr<Server> serve(ServeService& service) {
    ServerOptions options;
    options.socket_path = socket_path_;
    options.threads = 8;
    options.slow_request_ns = 0;  // keep stderr quiet under TSan
    auto server = std::make_unique<Server>(service, options);
    server->start();
    return server;
  }

  /// The kShutdown frame is acked and ends the server's accept loop.
  void shutdown_over_wire(Server& server) {
    Client client(socket_path_);
    EXPECT_EQ(client.shutdown_server().status, 0u);
    server.wait();
  }

  std::string temp_path(const std::string& stem) const {
    return (std::filesystem::path(::testing::TempDir()) /
            (stem + "." + std::to_string(::getpid())))
        .string();
  }

  const std::string socket_path_ = temp_path("serve_socket.sock");
};

TEST_F(ServeSocket, QueriesMatchTheInProcessPath) {
  const dag::SweepInstance instance = make_instance();
  dag::ArtifactPartition part;
  part.n_parts = 5;
  for (std::size_t v = 0; v < instance.n_cells(); ++v) {
    part.assignment.push_back(static_cast<std::uint32_t>(v % 5));
  }
  const std::vector<dag::ArtifactPartition> partitions = {part};
  ServeService service = make_service(instance, true, {}, &partitions);
  const auto server = serve(service);
  Client client(socket_path_);

  EXPECT_EQ(client.ping().status, 0u);
  const Response info = client.info();
  ASSERT_EQ(info.status, 0u);
  EXPECT_EQ(info.info.n_cells, instance.n_cells());
  EXPECT_EQ(info.info.content_hash, service.artifact()->content_hash());
  EXPECT_EQ(info.info.n_partitions, 1u);
  EXPECT_TRUE(info.info.has_descendants);

  for (const Scheme scheme : kSchemes) {
    for (const std::uint32_t m : {1u, 3u, 8u}) {
      for (const std::uint64_t seed : {1ull, 42ull}) {
        SCOPED_TRACE(::testing::Message()
                     << "scheme=" << static_cast<int>(scheme) << " m=" << m
                     << " seed=" << seed);
        const Response r = client.call(query_request(scheme, m, seed));
        ASSERT_EQ(r.status, 0u) << r.error;
        expect_answers(r.query, expected_query(instance, scheme, m, seed));
      }
    }
  }
  // The raw start array, so "bit-identical" is literal.
  const Response full = client.call(
      query_request(Scheme::kRandomDelay, 8, 42, /*want_starts=*/true));
  ASSERT_EQ(full.status, 0u) << full.error;
  EXPECT_EQ(full.query.starts,
            expected_query(instance, Scheme::kRandomDelay, 8, 42).starts);

  // The embedded partition: the assignment and m come from the artifact.
  Request partitioned = query_request(Scheme::kLevel, 0, 1);
  partitioned.query.partition = 0;
  const Response r = client.call(partitioned);
  ASSERT_EQ(r.status, 0u) << r.error;
  core::ListScheduleOptions options;
  const std::vector<std::int64_t> priorities =
      core::level_priorities(instance);
  options.priorities = priorities;
  EXPECT_EQ(r.query.makespan,
            core::list_schedule(instance, part.assignment, 5, options)
                .makespan());
  shutdown_over_wire(*server);
}

TEST_F(ServeSocket, RejectedRequestsLeaveTheDaemonServing) {
  ServeService service = make_service(make_instance());
  const std::uint64_t hash_a = service.artifact()->content_hash();
  const auto server = serve(service);
  Client client(socket_path_);

  EXPECT_NE(client.call(query_request(Scheme::kLevel, 0, 1)).status, 0u);
  Request swap;
  swap.type = MsgType::kSwap;
  swap.swap.path = temp_path("does_not_exist.sweepart");
  EXPECT_NE(client.call(swap).status, 0u);

  const Response info = client.info();
  ASSERT_EQ(info.status, 0u);
  EXPECT_EQ(info.info.content_hash, hash_a);
  EXPECT_EQ(client.call(query_request(Scheme::kLevel, 4, 1)).status, 0u);
  EXPECT_EQ(service.swaps_completed(), 0u);
  shutdown_over_wire(*server);
}

TEST_F(ServeSocket, CacheHitIsBitIdenticalToTheColdComputeOverTheWire) {
  const dag::SweepInstance instance = make_instance();
  ServeService service = make_service(instance);
  ServeService cold = make_service(instance, true, no_cache());
  const auto server = serve(service);
  Client client(socket_path_);

  for (const Scheme scheme : kSchemes) {
    const Request with_starts = query_request(scheme, 6, 3, true);
    const std::vector<std::byte> want =
        encode_response(cold.handle(with_starts));
    // The first call computes; every repeat hits and must carry the same
    // payload, start array included.
    for (int round = 0; round < 4; ++round) {
      EXPECT_EQ(encode_response(client.call(with_starts)), want)
          << "scheme=" << static_cast<int>(scheme) << " round=" << round;
    }
    // The scalar twin hits the same entry and omits the array.
    const Request scalar = query_request(scheme, 6, 3);
    EXPECT_EQ(encode_response(client.call(scalar)),
              encode_response(cold.handle(scalar)));
  }
  const Response stats = client.stats();
  ASSERT_EQ(stats.status, 0u);
  EXPECT_EQ(entry_value(stats.stats, "serve.cache.misses"), 3u);
  EXPECT_EQ(entry_value(stats.stats, "serve.cache.hits"), 12u);
  EXPECT_EQ(entry_value(stats.stats, "serve.cache.hit_rate_pct"), 80u);
  shutdown_over_wire(*server);
}

TEST_F(ServeSocket, ConcurrentIdenticalQueriesComputeOnceOverTheWire) {
  ServeService service = make_service(make_instance());
  const auto server = serve(service);
  constexpr int kClients = 4;
  const Request request = query_request(Scheme::kLevel, 9, 777);
  std::vector<std::vector<std::byte>> answers(kClients);
  std::vector<Client> clients;  // connected up front, so no thread can fail
  for (int w = 0; w < kClients; ++w) clients.emplace_back(socket_path_);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> swarm;
  for (int w = 0; w < kClients; ++w) {
    swarm.push_back(test_thread([&, w] {
      const auto i = static_cast<std::size_t>(w);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      answers[i] = encode_response(clients[i].call(request));
    }));
  }
  while (ready.load() < kClients) std::this_thread::yield();
  go.store(true);
  for (std::thread& t : swarm) t.join();

  ServeService cold = make_service(make_instance(), true, no_cache());
  const std::vector<std::byte> want = encode_response(cold.handle(request));
  for (const auto& answer : answers) EXPECT_EQ(answer, want);
  Client client(socket_path_);
  const Response stats = client.stats();
  ASSERT_EQ(stats.status, 0u);
  EXPECT_EQ(entry_value(stats.stats, "serve.cache.misses"), 1u);
  EXPECT_EQ(entry_value(stats.stats, "serve.cache.hits") +
                entry_value(stats.stats, "serve.cache.inflight_waits"),
            static_cast<std::uint64_t>(kClients - 1));
  shutdown_over_wire(*server);
}

TEST_F(ServeSocket, HotSwapUnderLoadServesOnlyWholeAnswers) {
  const dag::SweepInstance inst_a = make_instance();
  const dag::SweepInstance inst_b = dag::random_instance(50, 2, 4, 1.5, 31);
  const std::string path_b = temp_path("hot_swap_b.sweepart");
  dag::save_artifact(inst_b, path_b);  // no descendant counts

  // Cold references: the only two answers a query may get.
  ServeService cold_a = make_service(inst_a, true, no_cache());
  ServeService cold_b(dag::Artifact::map_file(path_b), no_cache());
  const std::vector<Request> cases = {
      query_request(Scheme::kLevel, 4, 101),
      query_request(Scheme::kRandomDelay, 8, 102),
      query_request(Scheme::kLevel, 1, 103)};
  std::vector<std::vector<std::byte>> expect_a, expect_b;
  for (const Request& request : cases) {
    expect_a.push_back(encode_response(cold_a.handle(request)));
    expect_b.push_back(encode_response(cold_b.handle(request)));
    ASSERT_NE(expect_a.back(), expect_b.back());
  }

  ServeService service = make_service(inst_a);
  const auto server = serve(service);
  std::atomic<int> torn{0};
  std::vector<Client> clients;  // connected up front, so no thread can fail
  for (int w = 0; w < 4; ++w) clients.emplace_back(socket_path_);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> hammer;
  for (int w = 0; w < 4; ++w) {
    hammer.push_back(test_thread([&, w] {
      const auto i = static_cast<std::size_t>(w);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (int round = 0; round < 60; ++round) {
        const std::size_t pick = (i + round) % cases.size();
        const std::vector<std::byte> got =
            encode_response(clients[i].call(cases[pick]));
        if (got != expect_a[pick] && got != expect_b[pick]) torn.fetch_add(1);
      }
    }));
  }
  Client client(socket_path_);
  Request swap;
  swap.type = MsgType::kSwap;
  swap.swap.path = path_b;
  while (ready.load() < 4) std::this_thread::yield();
  go.store(true);
  EXPECT_EQ(client.call(swap).status, 0u);
  for (std::thread& t : hammer) t.join();
  EXPECT_EQ(torn.load(), 0);

  // The swap ack happens after the flip, so every answer from here on is
  // B's: a cached A answer surviving would be a stale serve.
  for (std::size_t pick = 0; pick < cases.size(); ++pick) {
    EXPECT_EQ(encode_response(client.call(cases[pick])), expect_b[pick])
        << "case " << pick;
  }
  const Response info = client.info();
  ASSERT_EQ(info.status, 0u);
  EXPECT_EQ(info.info.n_cells, inst_b.n_cells());
  EXPECT_FALSE(info.info.has_descendants);
  // B has no packed counts, so the descendant scheme is refused.
  EXPECT_NE(client.call(query_request(Scheme::kDescendant, 4, 1)).status, 0u);
  const Response stats = client.stats();
  EXPECT_EQ(stats.status, 0u);
  EXPECT_EQ(entry_value(stats.stats, "swaps"), 1u);
  shutdown_over_wire(*server);
  EXPECT_EQ(service.swaps_completed(), 1u);
  std::filesystem::remove(path_b);
}

std::int64_t gauge_value(const StatsResponse& stats, const std::string& name) {
  for (const auto& [k, v] : stats.gauges) {
    if (k == name) return v;
  }
  return 0;
}

bool quantiles_monotone(const StatsHistogram& h) {
  return h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.p999 &&
         h.p999 <= h.max;
}

TEST_F(ServeSocket, StatsPolledUnderLoadStayConsistent) {
  // Four clients send queries (every 10th one invalid, m = 0) while a
  // fifth polls kStats, so snapshots race live recording into every
  // histogram shard and gauge.
  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(true);
  ServeService service = make_service(make_instance(), false);
  const auto server = serve(service);

  constexpr int kClients = 4;
  constexpr int kRounds = 30;
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<bool> hammering{true};
  std::thread poller = test_thread([&] {
    Client client(socket_path_);
    while (hammering.load(std::memory_order_relaxed)) {
      const Response r = client.stats();
      if (r.status != 0) failures.fetch_add(1);
      for (const StatsHistogram& h : r.stats.histograms) {
        if (!quantiles_monotone(h)) failures.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> hammer;
  for (int w = 0; w < kClients; ++w) {
    hammer.push_back(test_thread([&, w] {
      Client client(socket_path_);
      for (int round = 0; round < kRounds; ++round) {
        const std::uint32_t m =
            round % 10 == 9 ? 0u : static_cast<std::uint32_t>(1 + w);
        const Response r = client.call(query_request(
            round % 2 == 0 ? Scheme::kLevel : Scheme::kRandomDelay, m,
            static_cast<std::uint64_t>(w * 1000 + round)));
        if (r.status == 0) {
          ok.fetch_add(1);
        } else if (m == 0) {
          rejected.fetch_add(1);
        } else {
          failures.fetch_add(1);
        }
      }
    }));
  }
  for (std::thread& t : hammer) t.join();
  hammering.store(false, std::memory_order_relaxed);
  poller.join();
  EXPECT_EQ(failures.load(), 0);
  const std::uint64_t want_rejected = kClients * (kRounds / 10);
  const std::uint64_t want_ok = kClients * kRounds - want_rejected;
  EXPECT_EQ(ok.load(), want_ok);
  EXPECT_EQ(rejected.load(), want_rejected);

  // The server lowers the in-flight gauge just after the response bytes
  // leave, so let the workers settle before reading a non-zero as a leak.
  // A stats request observes itself in flight: balanced reads exactly 1.
  Client client(socket_path_);
  Response r = client.stats();
  for (int attempt = 0;
       attempt < 100 && r.status == 0 &&
       gauge_value(r.stats, "serve.inflight_requests") != 1;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    r = client.stats();
  }
  ASSERT_EQ(r.status, 0u);
  const StatsResponse& stats = r.stats;
  EXPECT_EQ(stats.proto_version, kStatsProtoVersion);
  EXPECT_EQ(entry_value(stats, "queries"), want_ok);
  EXPECT_EQ(entry_value(stats, "errors"), want_rejected);
#if !defined(SWEEP_OBS_DISABLE)
  EXPECT_FALSE(stats.histograms.empty());
  bool saw_request_hist = false;
  for (const StatsHistogram& h : stats.histograms) {
    EXPECT_TRUE(quantiles_monotone(h)) << h.name;
    if (h.name == "serve.request_ns") {
      saw_request_hist = true;
      EXPECT_GE(h.count, want_ok + want_rejected);
      EXPECT_GT(h.p50, 0u);
    }
  }
  EXPECT_TRUE(saw_request_hist);
  EXPECT_EQ(gauge_value(stats, "serve.inflight_requests"), 1);
  EXPECT_GE(entry_value(stats, "serve.status.error"), want_rejected);
#else
  EXPECT_TRUE(stats.histograms.empty());
  EXPECT_TRUE(stats.gauges.empty());
#endif
  shutdown_over_wire(*server);
  obs::set_metrics_enabled(false);
  obs::MetricsRegistry::instance().reset();
}

}  // namespace
}  // namespace sweep::serve
