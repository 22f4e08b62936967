// sweep_perfbench: runs one perfbench workload and writes its result
// document (and, in trace mode, the Chrome trace) for run.py.
//
//   sweep_perfbench --workload offline-paper|serve-cold|serve-mixed
//                    --seed N --seconds S --trace 0|1
//                    --out result.json [--trace-out trace.json]
//
// Artifacts and the daemon socket are created in the working directory.
// Exit status: 0 when every operation and check passed, 1 when any failed
// (the result document is still written), 2 on a usage or setup error.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "obs/metrics.hpp"

namespace {

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = std::stoi(value) != 0;
    } else if (flag == "--out") {
      options.out_path = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (options.out_path.empty()) throw std::invalid_argument("--out is required");
  if (options.trace && options.trace_path.empty()) {
    throw std::invalid_argument("--trace 1 needs --trace-out");
  }
  if (!(options.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return options;
}

perfbench::Result run(const perfbench::Options& options) {
  if (options.workload == "offline-paper") return perfbench::run_offline(options);
  // The serve workloads run the daemon as sweep_serve does: metrics armed.
  sweep::obs::set_metrics_enabled(true);
  if (options.workload == "serve-cold") return perfbench::run_serve_cold(options);
  if (options.workload == "serve-mixed") return perfbench::run_serve_mixed(options);
  throw std::invalid_argument("unknown workload " + options.workload);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Options options = parse(argc, argv);
    perfbench::Result result = run(options);
    result.set("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
    const auto attempted = static_cast<double>(result.tally.attempted());
    result.set("success_pct",
               100.0 * (attempted - static_cast<double>(result.tally.failed())) /
                   std::max(1.0, attempted),
               "%", result.tally.attempted());
    if (options.trace && !perfbench::write_trace(options.trace_path)) {
      throw std::runtime_error("cannot write " + options.trace_path);
    }
    perfbench::write_result_json(options.out_path, options, result);
    for (const std::string& error : result.tally.errors()) {
      std::fprintf(stderr, "perfbench: FAILED %s\n", error.c_str());
    }
    return result.tally.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_perfbench: %s\n", e.what());
    return 2;
  }
}
