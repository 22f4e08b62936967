#pragma once
// Shared plumbing of sweep_perfbench: run options, per-stream seeds,
// timing and quantile helpers, the operation/check tally, the result record
// written for run.py, and the span helper that wraps public library calls.
//
// Every layer is measured from outside: the benchmark calls the public API of
// mesh / sweep / partition / core / serve and wraps each call in an
// obs::TraceSpan. With tracing off a span costs one relaxed atomic load, so
// the untraced run times the same code path the traced run decomposes.
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_path;    ///< result document (read by run.py)
  std::string trace_path;  ///< Chrome trace, written in trace mode
};

/// Independent input streams of one run. Every input the program under test
/// receives is drawn from split_seed(--seed, stream), so the same seed gives
/// the same inputs and a second seed changes all of them.
enum class Stream : std::uint64_t {
  kMeshJitter = 1,
  kPartitioner = 2,
  kSwapPartitioner = 3,
  kColdQueries = 4,
  kWarmQueries = 5,
  kKeys = 6,
  kZipf = 7,
  kArrivals = 8,
  kStarts = 9,
};

[[nodiscard]] inline std::uint64_t stream_seed(std::uint64_t seed,
                                               Stream stream) {
  return sweep::util::split_seed(seed, static_cast<std::uint64_t>(stream));
}

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point t0,
                                            Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Median (mean of the two middle values for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

[[nodiscard]] double mean(const std::vector<double>& values);

/// Counts operations and correctness checks. Every failure is kept (the
/// first few with a message) and makes the run incorrect.
class Tally {
 public:
  /// Records one attempted operation or check; returns `ok`.
  bool record(bool ok, const std::string& what);
  void merge(const Tally& other);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 1;
};

/// What one workload run hands back: the end-to-end metrics, the facts the
/// per-layer metrics are derived from (counts and the daemon's stats frame;
/// the timings come from the trace), and the tally.
struct Result {
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> facts;
  Tally tally;

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
};

/// Cumulative CPU time of all CPUs, from /proc/stat (zeros if unreadable).
struct CpuTicks {
  std::uint64_t steal = 0;  ///< time the hypervisor ran other guests
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Share of CPU time stolen by the hypervisor between two readings, in [0, 1].
[[nodiscard]] double steal_share(const CpuTicks& from, const CpuTicks& to);

/// Indices (ascending) of the `keep` entries of `steal` with the lowest
/// steal share, ties to the earlier entry. A timing taken while the
/// hypervisor ran other guests measures the host, not this program, so the
/// run reports its figures from the least-stolen intervals it measured.
[[nodiscard]] std::vector<std::size_t> least_stolen(
    const std::vector<double>& steal, std::size_t keep);

/// The entries of `values` at `indices`.
[[nodiscard]] std::vector<double> pick(const std::vector<double>& values,
                                       const std::vector<std::size_t>& indices);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Number of online cores (at least 1).
[[nodiscard]] std::size_t core_count();

/// Writes the result document run.py reads (end-to-end metrics, facts,
/// tally, host and build fingerprint).
void write_result_json(const std::string& path, const Options& options,
                       const Result& result);

/// Writes the buffered trace with full timestamp precision.
bool write_trace(const std::string& path);

/// Runs `body` inside a trace span `name` (a string literal).
template <class F>
decltype(auto) layer(const char* name, F&& body) {
  const sweep::obs::TraceSpan span(name);
  return body();
}

/// Same, with one integer span arg (scheme id, request id, ...).
template <class F>
decltype(auto) layer(const char* name, const char* key, std::int64_t value,
                     F&& body) {
  const sweep::obs::TraceSpan span(name, key, value);
  return body();
}

/// Priority schemes, with the ids the `scheme` span arg carries.
enum class SchemeId : std::int64_t {
  kLevel = 0,
  kRandomDelay = 1,
  kDescendant = 2,
  kDfds = 3,
};

Result run_offline(const Options& options);
Result run_serve_cold(const Options& options);
Result run_serve_mixed(const Options& options);

}  // namespace perfbench
