#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <numeric>
#include <sstream>

#include "util/simd.hpp"

namespace perfbench {
namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

bool Tally::record(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (errors_.size() < 16) errors_.push_back(what);
  }
  return ok;
}

void Tally::merge(const Tally& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& e : other.errors_) {
    if (errors_.size() < 16) errors_.push_back(e);
  }
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};
  CpuTicks ticks;
  if (in >> cpu && cpu == "cpu") {
    for (std::uint64_t& f : field) in >> f;
    if (in) {
      ticks.steal = field[7];
      ticks.total = std::accumulate(std::begin(field), std::end(field),
                                    std::uint64_t{0});
    }
  }
  return ticks;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

std::vector<std::size_t> least_stolen(const std::vector<double>& steal,
                                      std::size_t keep) {
  std::vector<std::size_t> order(steal.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  order.resize(std::min(keep, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<double> pick(const std::vector<double>& values,
                         const std::vector<std::size_t>& indices) {
  std::vector<double> out;
  for (const std::size_t i : indices) out.push_back(values[i]);
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t core_count() {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<std::size_t>(online) : 1;
}

void write_result_json(const std::string& path, const Options& options,
                       const Result& result) {
  std::ofstream out(path);
  out << "{\n  \"workload\": " << json_string(options.workload)
      << ",\n  \"seed\": " << options.seed
      << ",\n  \"seconds\": " << json_number(options.seconds)
      << ",\n  \"trace\": " << (options.trace ? 1 : 0)
      << ",\n  \"attempted\": " << result.tally.attempted()
      << ",\n  \"failed\": " << result.tally.failed() << ",\n  \"errors\": [";
  for (std::size_t i = 0; i < result.tally.errors().size(); ++i) {
    out << (i ? ", " : "") << json_string(result.tally.errors()[i]);
  }
  out << "],\n  \"fingerprint\": {"
      << "\"nproc\": " << core_count()
      << ", \"cpu_model\": " << json_string(cpu_model()) << ", \"simd\": "
      << json_string(sweep::util::simd::level_name(
             sweep::util::simd::detected_level()))
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_string(std::string("gcc-compatible ") + __VERSION__)
#if defined(SWEEP_OBS_DISABLE)
      << ", \"sweep_obs\": \"off\""
#else
      << ", \"sweep_obs\": \"on\""
#endif
      << "},\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    out << (first ? "\n" : ",\n") << "    " << json_string(name)
        << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit)
        << ", \"samples\": " << m.samples << "}";
    first = false;
  }
  out << "\n  },\n  \"facts\": {";
  first = true;
  for (const auto& [name, value] : result.facts) {
    out << (first ? "\n" : ",\n") << "    " << json_string(name) << ": "
        << json_number(value);
    first = false;
  }
  out << "\n  }\n}\n";
}

bool write_trace(const std::string& path) {
  sweep::obs::stop_tracing();
  std::ofstream out(path);
  if (!out) return false;
  // Timestamps are microseconds since the trace epoch; the default six
  // significant digits would round them to 100 us after ten seconds.
  out << std::setprecision(15);
  sweep::obs::write_trace_json(out);
  return static_cast<bool>(out);
}

}  // namespace perfbench
