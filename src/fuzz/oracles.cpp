#include "fuzz/oracles.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/algorithms.hpp"
#include "core/assignment.hpp"
#include "core/comm_cost.hpp"
#include "core/comm_rounds.hpp"
#include "core/list_scheduler.hpp"
#include "core/lower_bounds.hpp"
#include "core/priorities.hpp"
#include "core/random_delay.hpp"
#include "core/schedule_io.hpp"
#include "core/validate.hpp"
#include "core/weighted_scheduler.hpp"
#include "serve/wire.hpp"
#include "sweep/artifact.hpp"
#include "sweep/descendants.hpp"
#include "sweep/instance_io.hpp"
#include "util/cli.hpp"

namespace sweep::fuzz {
namespace {

using core::Assignment;
using core::Schedule;
using core::TimeStep;

std::string describe(const Scenario& s) {
  std::ostringstream out;
  out << "family=" << static_cast<std::uint32_t>(s.family) << " seed=" << s.seed
      << " n=" << s.n << " k=" << s.k << " m=" << s.m
      << " algorithm=" << core::algorithm_name(
             core::all_algorithms()[s.algorithm]);
  return out.str();
}

/// Independent re-simulation of the layer-synchronous execution of
/// Algorithms 1 and 3: recompute combined layers from `base_level` plus the
/// returned delays and re-derive layer widths, per-processor layer loads and
/// the makespan, then compare against what the algorithm reported.
void recheck_random_delay(const dag::SweepInstance& instance, std::size_t m,
                          const core::RandomDelayResult& result,
                          std::span<const std::uint32_t> base_level,
                          const char* name, OracleReport& report) {
  const std::size_t n = instance.n_cells();
  const std::size_t k = instance.n_directions();
  const std::size_t total = n * k;
  auto fail = [&](const std::string& msg) {
    report.violations.push_back({name, msg});
  };

  const auto valid = core::validate_schedule(instance, result.schedule);
  if (!valid) {
    fail("infeasible schedule: " + valid.error);
    return;
  }
  if (result.delays.size() != k) {
    fail("delays vector has wrong size");
    return;
  }

  std::vector<std::uint32_t> layer(total);
  std::size_t n_layers = 0;
  for (std::size_t t = 0; t < total; ++t) {
    layer[t] = base_level[t] + result.delays[t / n];
    n_layers = std::max<std::size_t>(n_layers, layer[t] + 1);
  }
  if (n_layers != result.combined_layers) {
    fail("combined_layers mismatch: reported " +
         std::to_string(result.combined_layers) + ", recomputed " +
         std::to_string(n_layers));
  }

  // Bucket tasks by layer, then recount loads layer by layer.
  std::vector<std::vector<std::size_t>> by_layer(n_layers);
  for (std::size_t t = 0; t < total; ++t) by_layer[layer[t]].push_back(t);

  std::vector<std::uint32_t> load(m, 0);
  std::size_t max_load = 0;
  std::size_t expected_makespan = 0;
  for (const auto& tasks : by_layer) {
    std::size_t layer_max = 0;
    for (std::size_t t : tasks) {
      const auto p = result.schedule.processor_of(t);
      layer_max = std::max<std::size_t>(layer_max, ++load[p]);
    }
    if (layer_max > tasks.size()) {
      fail("per-processor layer load exceeds layer width");
    }
    expected_makespan += layer_max;
    max_load = std::max(max_load, layer_max);
    for (std::size_t t : tasks) load[result.schedule.processor_of(t)] = 0;
  }
  if (max_load != result.max_layer_load) {
    fail("max_layer_load mismatch: reported " +
         std::to_string(result.max_layer_load) + ", recomputed " +
         std::to_string(max_load));
  }
  if (expected_makespan != result.schedule.makespan()) {
    fail("makespan is not the sum of per-layer maxima: schedule says " +
         std::to_string(result.schedule.makespan()) + ", layers sum to " +
         std::to_string(expected_makespan));
  }
}

void run_benign_oracles(const Scenario& s, OracleReport& report) {
  auto fail = [&](const char* oracle, const std::string& msg) {
    report.violations.push_back({oracle, msg + " [" + describe(s) + "]"});
  };
  auto check = [&](const char* name, auto&& fn) {
    ++report.checks_run;
    try {
      fn();
    } catch (const std::exception& e) {
      fail(name, std::string("unexpected exception: ") + e.what());
    }
  };

  std::optional<dag::SweepInstance> instance;
  ++report.checks_run;
  try {
    instance.emplace(materialize(s));
  } catch (const std::exception& e) {
    fail("materialize", std::string("generator threw: ") + e.what());
    return;
  }
  const std::size_t n = instance->n_cells();
  const std::size_t k = instance->n_directions();
  const std::size_t m = std::max<std::uint32_t>(1, s.m);
  const core::Algorithm algorithm = core::all_algorithms()[s.algorithm];

  util::Rng assignment_rng(s.seed * 7 + 1);
  const Assignment assignment = core::random_assignment(n, m, assignment_rng);

  // Oracle 1: feasibility + completeness of the scheduled algorithm.
  std::optional<Schedule> schedule;
  check("validate", [&] {
    util::Rng rng(s.seed);
    schedule.emplace(core::run_algorithm(algorithm, *instance, m, rng,
                                         assignment));
    const auto valid = core::validate_schedule(*instance, *schedule);
    if (!valid) fail("validate", "infeasible schedule: " + valid.error);
    if (!schedule->complete()) fail("validate", "schedule is incomplete");
  });
  if (!schedule) return;

  // Oracle 2: lower-bound sanity. makespan >= max{ceil(nk/m), k, D} with
  // the k and D bounds applying only when there are cells to schedule
  // (D = max level count = longest critical path of unit tasks).
  check("lower_bound", [&] {
    const std::size_t makespan = schedule->makespan();
    const std::size_t avg = (n * k + m - 1) / m;  // ceil(nk/m)
    std::size_t lb = avg;
    if (n > 0) lb = std::max(lb, k);
    lb = std::max(lb, instance->max_depth());
    if (makespan < lb) {
      fail("lower_bound", "makespan " + std::to_string(makespan) +
                              " below lower bound " + std::to_string(lb));
    }
    if (n > 0) {
      const auto bounds = core::compute_lower_bounds(*instance, m);
      if (static_cast<double>(makespan) + 1e-9 < bounds.value()) {
        fail("lower_bound", "makespan below compute_lower_bounds value");
      }
    }
  });

  // Oracle 3: engine identity — the production engine against the
  // preserved reference implementation, including release times and
  // cross-message delays, under two priority vectors: level priorities, and
  // a wide int64 draw with the extremes mixed in (ranges past 2^63, ties).
  check("engine_identity", [&] {
    const auto level = core::level_priorities(*instance);
    std::vector<std::int64_t> wide(level.size());
    {
      util::Rng rng(s.seed + 23);
      constexpr std::int64_t kEnds[] = {
          std::numeric_limits<std::int64_t>::min(), -1, 0,
          std::numeric_limits<std::int64_t>::max()};
      for (auto& p : wide) {
        const std::uint64_t draw = rng();
        p = draw % 4 == 0 ? kEnds[(draw >> 2) % 4]
                          : static_cast<std::int64_t>(draw);
      }
    }
    std::vector<TimeStep> releases;
    core::ListScheduleOptions options;
    options.cross_message_delay = s.delay;
    if (s.seed % 2 == 0 && k > 0) {
      util::Rng rng(s.seed + 17);
      const auto delays = core::random_delays(k, rng);
      releases = core::delay_release_times(*instance, delays);
      options.release_times = releases;
    }
    const std::vector<std::int64_t>* const cases[] = {&level, &wide};
    for (const std::vector<std::int64_t>* priorities : cases) {
      options.priorities = *priorities;
      const Schedule engine =
          core::list_schedule(*instance, assignment, m, options);
      const Schedule reference =
          core::list_schedule_reference(*instance, assignment, m, options);
      if (engine.starts() != reference.starts()) {
        fail("engine_identity",
             std::string("engine diverges from reference under ") +
                 (priorities == &level ? "level" : "wide int64") +
                 " priorities");
      }
    }
  });

  // Oracles 4+5: random-delay re-simulation (Algorithms 1 and 3).
  check("rd_invariants", [&] {
    util::Rng rng(s.seed + 1);
    const auto result = core::random_delay_schedule(*instance, m, rng);
    recheck_random_delay(*instance, m, result,
                         instance->task_graph().levels(), "rd_invariants",
                         report);
  });
  check("improved_rd_invariants", [&] {
    util::Rng rng(s.seed + 2);
    const auto result = core::improved_random_delay_schedule(*instance, m, rng);
    const auto new_level = core::greedy_union_schedule(*instance, m);
    // Preprocessing guarantee: every greedy step runs at most m tasks.
    std::vector<std::size_t> width;
    for (const TimeStep step : new_level) {
      if (step >= width.size()) width.resize(step + 1, 0);
      ++width[step];
    }
    for (const std::size_t w : width) {
      if (w > m) {
        fail("improved_rd_invariants",
             "greedy union level wider than m tasks");
        break;
      }
    }
    recheck_random_delay(*instance, m, result, new_level,
                         "improved_rd_invariants", report);
  });

  // Oracle 6: the C2 realization (greedy edge coloring) stays within its
  // guarantee and agrees with C1 on the message count.
  check("c2_rounds", [&] {
    const auto rounds = core::realize_c2_rounds(*instance, *schedule);
    const auto c1 = core::comm_cost_c1(*instance, schedule->assignment());
    if (rounds.total_messages != c1.cross_edges) {
      fail("c2_rounds", "realized message count disagrees with C1");
    }
    if (rounds.max_total_degree > 0 &&
        rounds.max_round_count > 2 * rounds.max_total_degree - 1) {
      fail("c2_rounds",
           "a step used " + std::to_string(rounds.max_round_count) +
               " rounds, above the 2*Delta-1 = " +
               std::to_string(2 * rounds.max_total_degree - 1) + " guarantee");
    }
    if (rounds.max_round_count > rounds.total_rounds) {
      fail("c2_rounds", "max_round_count exceeds total_rounds");
    }
  });

  // Oracle 7: persistence round trip, with C1/C2 recomputed on the reloaded
  // schedule.
  check("roundtrip", [&] {
    std::stringstream buffer;
    core::save_schedule(*schedule, buffer);
    const Schedule loaded = core::load_schedule(buffer);
    if (loaded.n_cells() != schedule->n_cells() ||
        loaded.n_directions() != schedule->n_directions() ||
        loaded.n_processors() != schedule->n_processors() ||
        loaded.assignment() != schedule->assignment() ||
        loaded.starts() != schedule->starts()) {
      fail("roundtrip", "save -> load round trip is not the identity");
      return;
    }
    const auto valid = core::validate_schedule(*instance, loaded);
    if (!valid) {
      fail("roundtrip", "reloaded schedule fails validation: " + valid.error);
    }
    const auto c1a = core::comm_cost_c1(*instance, schedule->assignment());
    const auto c1b = core::comm_cost_c1(*instance, loaded.assignment());
    if (c1a.cross_edges != c1b.cross_edges) {
      fail("roundtrip", "C1 changed across the round trip");
    }
    const auto c2a = core::comm_cost_c2(*instance, *schedule);
    const auto c2b = core::comm_cost_c2(*instance, loaded);
    if (c2a.total_delay != c2b.total_delay ||
        c2a.max_step_degree != c2b.max_step_degree ||
        c2a.busy_steps != c2b.busy_steps) {
      fail("roundtrip", "C2 changed across the round trip");
    }
  });

  auto preproc_identity = [&] {
    util::Rng delay_rng(s.seed + 11);
    const auto delays = core::random_delays(std::max<std::size_t>(k, 1),
                                            delay_rng);
    util::Rng ref_rng(s.seed + 13);
    const auto ref_descendant =
        core::descendant_priorities_reference(*instance, ref_rng);
    const auto ref_blevel = core::blevel_priorities_reference(*instance);
    const auto ref_dfds =
        core::dfds_priorities_reference(*instance, assignment);
    const auto ref_delay =
        k > 0 ? core::random_delay_priorities_reference(*instance, delays)
              : std::vector<std::int64_t>{};
    for (const std::size_t jobs : {1u, 2u}) {
      const std::string at = " diverges from reference at jobs=" +
                             std::to_string(jobs);
      util::Rng par_rng(s.seed + 13);
      if (core::descendant_priorities(*instance, par_rng, jobs) !=
          ref_descendant) {
        fail("preproc_identity", "descendant_priorities" + at);
      }
      if (core::blevel_priorities(*instance, jobs) != ref_blevel) {
        fail("preproc_identity", "blevel_priorities" + at);
      }
      if (core::dfds_priorities(*instance, assignment, jobs) != ref_dfds) {
        fail("preproc_identity", "dfds_priorities" + at);
      }
      if (k > 0 &&
          core::random_delay_priorities(*instance, delays, jobs) != ref_delay) {
        fail("preproc_identity", "random_delay_priorities" + at);
      }
    }
    for (const std::size_t i : {std::size_t{0}, k - 1}) {
      if (i >= k) break;
      const dag::SweepDag& g = instance->dag(i);
      const auto ref_counts = dag::exact_descendant_counts_reference(g);
      for (const std::size_t jobs : {1u, 2u}) {
        if (dag::exact_descendant_counts(g, 1u << 14, nullptr, jobs) !=
            ref_counts) {
          fail("preproc_identity",
               "tiled exact_descendant_counts diverges from reference "
               "(direction " + std::to_string(i) + ", jobs=" +
                   std::to_string(jobs) + ")");
        }
      }
    }
  };

  // Oracle 8: the parallel trial harness is deterministic in the fan-out
  // width (byte-identical means for any --jobs).
  check("trials_determinism", [&] {
    const bench::TrialSpec spec{algorithm, m, nullptr};
    const auto serial =
        bench::parallel_trials(*instance, {&spec, 1}, 2, s.seed, false, 1);
    const auto threaded =
        bench::parallel_trials(*instance, {&spec, 1}, 2, s.seed, false, 2);
    if (serial != threaded) {
      fail("trials_determinism",
           "parallel_trials differs between jobs=1 and jobs=2");
    }
  });

  // Oracle 9: preprocessing identity — the parallel priority constructors
  // and the tiled descendant counter are byte-identical to their preserved
  // serial references for every fan-out width.
  check("preproc_identity", preproc_identity);
}

/// Hostile channel 1: an assignment entry == m fed to every scheduler entry
/// point must be rejected with std::invalid_argument — an unchecked entry
/// used to index past proc_cursor and corrupt the heap.
void check_oob_assignment(const Scenario& s, OracleReport& report) {
  constexpr const char* kName = "hostile_oob";
  Scenario base = s;
  base.hostile = Hostility::kNone;
  if (base.n == 0) base.n = 1;
  if (base.family == Family::kEdgeless && base.k == 0) base.k = 1;
  const dag::SweepInstance instance = materialize(base);
  const std::size_t n = instance.n_cells();
  const std::size_t m = std::max<std::uint32_t>(1, s.m);

  util::Rng rng(s.seed);
  Assignment bad = core::random_assignment(n, m, rng);
  bad[s.seed % n] = static_cast<core::ProcessorId>(m);  // one past the end

  auto expect_reject = [&](const char* what, auto&& fn) {
    ++report.checks_run;
    try {
      fn();
      report.violations.push_back(
          {kName, std::string(what) +
                      " accepted an out-of-range assignment entry [" +
                      describe(s) + "]"});
    } catch (const std::invalid_argument&) {
      // correct rejection
    } catch (const std::exception& e) {
      report.violations.push_back(
          {kName, std::string(what) + " failed with the wrong exception: " +
                      e.what() + " [" + describe(s) + "]"});
    }
  };

  expect_reject("random_delay_schedule", [&] {
    util::Rng r(s.seed + 1);
    (void)core::random_delay_schedule(instance, m, r, bad);
  });
  expect_reject("improved_random_delay_schedule", [&] {
    util::Rng r(s.seed + 2);
    (void)core::improved_random_delay_schedule(instance, m, r, bad);
  });
  expect_reject("list_schedule", [&] {
    (void)core::list_schedule(instance, bad, m);
  });
  expect_reject("list_schedule_reference", [&] {
    (void)core::list_schedule_reference(instance, bad, m);
  });
  expect_reject("weighted_list_schedule", [&] {
    const std::vector<double> weights(n, 1.0);
    (void)core::weighted_list_schedule(instance, bad, m, weights);
  });
  expect_reject("run_algorithm", [&] {
    util::Rng r(s.seed + 3);
    (void)core::run_algorithm(core::all_algorithms()[s.algorithm], instance, m,
                              r, bad);
  });
}

/// Hostile channel 2: a mutated schedule file must make load_schedule throw,
/// never return a schedule that later corrupts comm_rounds / utilization.
void check_corrupt_schedule_file(const Scenario& s, OracleReport& report) {
  constexpr const char* kName = "hostile_schedule_file";
  Scenario base = s;
  base.hostile = Hostility::kNone;
  base.family = Family::kRandomLayered;  // fixed token layout for surgery
  base.n = 4 + s.n % 8;
  base.k = std::max<std::uint32_t>(1, s.k);
  base.m = std::max<std::uint32_t>(2, std::min<std::uint32_t>(s.m, 6));
  const dag::SweepInstance instance = materialize(base);
  const std::size_t n = instance.n_cells();
  const std::size_t k = instance.n_directions();

  util::Rng rng(s.seed);
  const Schedule schedule = core::run_algorithm(
      core::all_algorithms()[s.algorithm], instance, base.m, rng);
  std::stringstream buffer;
  core::save_schedule(schedule, buffer);

  // Token layout: magic version n k m assignment[n] starts[n*k].
  std::vector<std::string> tokens;
  for (std::string t; buffer >> t;) tokens.push_back(std::move(t));

  const std::size_t kind = s.seed % 5;
  switch (kind) {
    case 0:  // truncated mid-assignment
      tokens.resize(5 + n / 2);
      break;
    case 1:  // zero processors with cells present
      tokens[4] = "0";
      break;
    case 2:  // assignment entry == m (out of range)
      tokens[5 + s.seed % n] = std::to_string(base.m);
      break;
    case 3:  // a start equal to the kUnscheduled sentinel
      tokens[5 + n + s.seed % (n * k)] = "4294967295";
      break;
    default:  // shape that overflows n*k / exceeds the 32-bit id range
      tokens[2] = "1000000000000";
      tokens[3] = "1000000000000";
      break;
  }
  std::string mutated;
  for (const auto& t : tokens) {
    mutated += t;
    mutated += ' ';
  }

  ++report.checks_run;
  try {
    std::stringstream in(mutated);
    const Schedule loaded = core::load_schedule(in);
    (void)loaded;
    report.violations.push_back(
        {kName, "load_schedule accepted a corrupt file (mutation kind " +
                    std::to_string(kind) + ") [" + describe(s) + "]"});
  } catch (const std::runtime_error&) {
    // correct rejection
  } catch (const std::exception& e) {
    report.violations.push_back(
        {kName, std::string("load_schedule failed with the wrong exception: ") +
                    e.what() + " [" + describe(s) + "]"});
  }
}

/// Hostile channel 3: garbage CLI values must be reported (throw / parse
/// error), never silently become 0 (the "--procs=abc runs with 0 processors"
/// failure mode).
void check_cli_garbage(const Scenario& s, OracleReport& report) {
  constexpr const char* kName = "hostile_cli";
  static const char* kGarbage[] = {"abc", "", "12x", "1e", "0.5.3"};
  const std::string garbage = kGarbage[s.seed % 5];
  auto fail = [&](const std::string& msg) {
    report.violations.push_back({kName, msg + " (value '" + garbage + "')"});
  };

  {
    util::CliParser cli("sweep_fuzz_probe", "hostile cli probe");
    cli.add_option("procs", "8", "processors");
    cli.add_option("scale", "1.0", "scale");
    cli.add_option("list", "1,2", "list");
    const std::string arg = "--procs=" + garbage;
    const char* argv[] = {"sweep_fuzz_probe", arg.c_str()};
    ++report.checks_run;
    if (cli.parse(2, argv)) {
      bool threw = false;
      try {
        (void)cli.integer("procs");
      } catch (const std::invalid_argument&) {
        threw = true;
      }
      if (!threw) fail("CliParser::integer silently accepted garbage");
      threw = false;
      try {
        (void)cli.real("procs");
      } catch (const std::invalid_argument&) {
        threw = true;
      }
      if (!threw) fail("CliParser::real silently accepted garbage");
    }
  }
  {
    util::CliParser cli("sweep_fuzz_probe", "hostile cli probe");
    cli.add_option("list", "1,2", "list");
    const std::string arg = "--list=1," + garbage;
    const char* argv[] = {"sweep_fuzz_probe", arg.c_str()};
    ++report.checks_run;
    if (cli.parse(2, argv)) {
      bool threw = false;
      try {
        (void)cli.int_list("list");
      } catch (const std::invalid_argument&) {
        threw = true;
      }
      if (!threw) fail("CliParser::int_list silently accepted garbage");
    }
  }
  {
    util::CliParser cli("sweep_fuzz_probe", "hostile cli probe");
    cli.add_flag("verbose", "verbosity");
    const char* argv[] = {"sweep_fuzz_probe", "--verbose=yes"};
    ++report.checks_run;
    if (cli.parse(2, argv)) {
      fail("a flag with a non-boolean inline value parsed successfully");
    }
  }
}

/// Hostile channel 5: a mutated instance text file. load_instance must either
/// throw std::runtime_error (clean rejection) or return an instance that
/// itself survives a save -> load round trip — it must never crash, hang on
/// a hostile edge count, or hand back an instance with out-of-range
/// endpoints.
void check_corrupt_instance_file(const Scenario& s, OracleReport& report) {
  constexpr const char* kName = "hostile_instance_file";
  Scenario base = s;
  base.hostile = Hostility::kNone;
  base.family = Family::kRandomLayered;
  base.n = 2 + s.n % 12;
  base.k = std::max<std::uint32_t>(1, std::min<std::uint32_t>(s.k, 3));
  const dag::SweepInstance instance = materialize(base);

  std::ostringstream saved_stream;
  dag::save_instance(instance, saved_stream);
  std::string text = saved_stream.str();

  util::Rng rng(s.seed * 31 + 5);
  const std::size_t kind = rng.next_below(4);
  switch (kind) {
    case 0: {  // flip one byte anywhere in the file
      const std::size_t pos = rng.next_below(text.size());
      text[pos] = static_cast<char>(text[pos] ^ (1 + rng.next_below(255)));
      break;
    }
    case 1:  // truncate mid-file
      text.resize(rng.next_below(text.size()));
      break;
    case 2: {  // splice a huge number over a numeric token (hostile counts)
      const std::size_t pos = rng.next_below(text.size());
      const std::size_t cut = std::min<std::size_t>(text.size() - pos,
                                                    1 + rng.next_below(8));
      text.replace(pos, cut, "184467440737095516");
      break;
    }
    default: {  // duplicate a chunk (shifts every later token)
      const std::size_t pos = rng.next_below(text.size());
      const std::size_t len = std::min<std::size_t>(text.size() - pos,
                                                    1 + rng.next_below(16));
      text.insert(pos, text.substr(pos, len));
      break;
    }
  }

  ++report.checks_run;
  try {
    std::istringstream in(text);
    const dag::SweepInstance loaded = dag::load_instance(in);
    // The mutation happened to parse — fine, but only if what came back is a
    // well-formed instance: saving and reloading it must be the identity.
    std::ostringstream second;
    dag::save_instance(loaded, second);
    std::istringstream again(second.str());
    const dag::SweepInstance reloaded = dag::load_instance(again);
    std::ostringstream third;
    dag::save_instance(reloaded, third);
    if (second.str() != third.str()) {
      report.violations.push_back(
          {kName, "accepted mutation (kind " + std::to_string(kind) +
                      ") produced an instance that does not round-trip [" +
                      describe(s) + "]"});
    }
  } catch (const std::runtime_error&) {
    // correct rejection
  } catch (const std::exception& e) {
    report.violations.push_back(
        {kName, std::string("load_instance failed with the wrong exception: ") +
                    e.what() + " [" + describe(s) + "]"});
  }
}

/// Hostile channel 6: mutated artifact bytes fed to Artifact::from_memory.
/// Every corruption — truncation, header surgery, section-table surgery, or
/// a payload byte flip (which must trip the content hash) — has to end in
/// ArtifactError or a fully valid artifact; never a crash, over-read, or an
/// artifact whose accessors lie about its shape.
void check_corrupt_artifact(const Scenario& s, OracleReport& report) {
  constexpr const char* kName = "hostile_artifact";
  Scenario base = s;
  base.hostile = Hostility::kNone;
  base.family = Family::kRandomLayered;
  base.n = 2 + s.n % 12;
  base.k = std::max<std::uint32_t>(1, std::min<std::uint32_t>(s.k, 3));
  const dag::SweepInstance instance = materialize(base);
  dag::ArtifactWriteOptions options;
  options.include_descendants = (s.seed % 2) == 0;
  std::vector<std::byte> bytes = dag::pack_artifact(instance, options);

  util::Rng rng(s.seed * 131 + 7);
  const std::size_t kind = rng.next_below(4);
  switch (kind) {
    case 0: {  // flip one byte anywhere (header, tables, or payload)
      const std::size_t pos = rng.next_below(bytes.size());
      bytes[pos] ^= static_cast<std::byte>(1 + rng.next_below(255));
      break;
    }
    case 1:  // truncate (possibly into the header itself)
      bytes.resize(rng.next_below(bytes.size()));
      break;
    case 2: {  // 8-byte splice of an overflow-bait value into the first 256
               // bytes: header counts, section offsets/sizes
      const std::size_t window = std::min<std::size_t>(bytes.size(), 256) - 8;
      const std::size_t pos = rng.next_below(window + 1);
      const std::uint64_t bait =
          (rng.next_below(2) == 0) ? ~std::uint64_t{0} : 0x8000000000000000ULL;
      for (std::size_t i = 0; i < 8; ++i) {
        bytes[pos + i] = static_cast<std::byte>((bait >> (8 * i)) & 0xff);
      }
      break;
    }
    default:  // append trailing garbage (file_bytes must catch the mismatch)
      for (std::size_t i = 0; i < 1 + rng.next_below(64); ++i) {
        bytes.push_back(static_cast<std::byte>(rng.next_below(256)));
      }
      break;
  }

  ++report.checks_run;
  try {
    const auto artifact = dag::Artifact::from_memory(std::move(bytes));
    // Accepted (e.g. the flip landed in unhashed padding): the artifact must
    // still describe a coherent graph.
    const dag::TaskGraph& graph = artifact->task_graph();
    if (graph.n_tasks() != artifact->n_cells() * artifact->n_directions() ||
        graph.n_edges() != artifact->n_edges()) {
      report.violations.push_back(
          {kName, "accepted mutation (kind " + std::to_string(kind) +
                      ") yields inconsistent accessors [" + describe(s) + "]"});
    }
  } catch (const dag::ArtifactError&) {
    // correct rejection
  } catch (const std::exception& e) {
    report.violations.push_back(
        {kName,
         std::string("from_memory failed with the wrong exception: ") +
             e.what() + " (mutation kind " + std::to_string(kind) + ") [" +
             describe(s) + "]"});
  }
}

/// Hostile channel 7: the serve wire decoders on malformed payloads. Strict
/// prefixes of valid messages, trailing bytes, out-of-range enums, and pure
/// random bytes must all end in WireError (or, for random bytes only, a
/// clean accidental decode) — never a crash or unbounded allocation.
void check_wire_garbage(const Scenario& s, OracleReport& report) {
  constexpr const char* kName = "hostile_wire";
  util::Rng rng(s.seed * 17 + 3);
  auto fail = [&](const std::string& msg) {
    report.violations.push_back({kName, msg + " [" + describe(s) + "]"});
  };
  auto expect_wire_error = [&](const char* what, auto&& fn) {
    ++report.checks_run;
    try {
      fn();
      fail(std::string(what) + " accepted malformed bytes");
    } catch (const serve::WireError&) {
      // correct rejection
    } catch (const std::exception& e) {
      fail(std::string(what) + " threw the wrong exception: " + e.what());
    }
  };

  // A valid request of every type, for surgery.
  serve::Request request;
  switch (rng.next_below(4)) {
    case 0:
      request.type = serve::MsgType::kPing;
      break;
    case 1:
      request.type = serve::MsgType::kInfo;
      break;
    case 2:
      request.type = serve::MsgType::kQuery;
      request.query.scheme = serve::Scheme::kRandomDelay;
      request.query.m = 1 + static_cast<std::uint32_t>(rng.next_below(16));
      request.query.seed = rng();
      break;
    default:
      request.type = serve::MsgType::kSwap;
      request.swap.path = "/tmp/x.sweepart";
      break;
  }
  const std::vector<std::byte> valid = serve::encode_request(request);

  // Round trip sanity first: the valid frame must decode to itself.
  ++report.checks_run;
  try {
    const serve::Request back = serve::decode_request(valid);
    if (back.type != request.type) fail("valid request decoded to wrong type");
  } catch (const std::exception& e) {
    fail(std::string("valid request failed to decode: ") + e.what());
  }

  // Strict prefix: every truncation of a valid frame is malformed.
  expect_wire_error("decode_request(prefix)", [&] {
    (void)serve::decode_request(
        std::span<const std::byte>(valid.data(),
                                   rng.next_below(valid.size())));
  });

  // Trailing bytes after a complete message.
  expect_wire_error("decode_request(trailing)", [&] {
    std::vector<std::byte> padded = valid;
    padded.push_back(static_cast<std::byte>(rng.next_below(256)));
    (void)serve::decode_request(padded);
  });

  // Out-of-range message type in an otherwise intact frame.
  expect_wire_error("decode_request(bad type)", [&] {
    std::vector<std::byte> mutated = valid;
    const std::uint32_t bad =
        7 + static_cast<std::uint32_t>(rng.next_below(1000));
    for (std::size_t i = 0; i < 4; ++i) {
      mutated[i] = static_cast<std::byte>((bad >> (8 * i)) & 0xff);
    }
    (void)serve::decode_request(mutated);
  });

  // Stats wire v2: a response with telemetry views must round-trip
  // exactly, every strict prefix into the quantile block must be
  // rejected, and an absurd entry count must be rejected before any
  // allocation proportional to it.
  {
    serve::Response stats;
    stats.status = 0;
    stats.type = serve::MsgType::kStats;
    stats.stats.proto_version = serve::kStatsProtoVersion;
    const std::size_t n_plain = rng.next_below(4);
    for (std::size_t i = 0; i < n_plain; ++i) {
      stats.stats.entries.emplace_back("k" + std::to_string(i), rng());
    }
    const std::size_t n_gauges = rng.next_below(3);
    for (std::size_t i = 0; i < n_gauges; ++i) {
      stats.stats.gauges.emplace_back(
          "g" + std::to_string(i), static_cast<std::int64_t>(rng()));
    }
    const std::size_t n_hists = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < n_hists; ++i) {
      serve::StatsHistogram h;
      h.name = "h" + std::to_string(i);
      h.count = rng();
      h.p50 = rng();
      h.p90 = rng();
      h.p99 = rng();
      h.p999 = rng();
      h.max = rng();  // absurd uncorrelated counts are fine on the wire
      stats.stats.histograms.push_back(std::move(h));
    }
    const std::vector<std::byte> encoded = serve::encode_response(stats);

    ++report.checks_run;
    try {
      const serve::Response back = serve::decode_response(encoded);
      if (back.stats.proto_version != stats.stats.proto_version ||
          back.stats.entries != stats.stats.entries ||
          back.stats.gauges != stats.stats.gauges ||
          back.stats.histograms != stats.stats.histograms) {
        fail("stats v2 typed views did not round-trip");
      }
    } catch (const std::exception& e) {
      fail(std::string("stats v2 round trip failed to decode: ") + e.what());
    }

    expect_wire_error("decode_response(truncated v2 stats)", [&] {
      // Cut somewhere after the header so the break lands inside the
      // entry list / quantile block, not in the status word.
      const std::size_t keep = 8 + rng.next_below(encoded.size() - 8);
      (void)serve::decode_response(
          std::span<const std::byte>(encoded.data(), keep));
    });

    expect_wire_error("decode_response(absurd stats count)", [&] {
      std::vector<std::byte> mutated = encoded;
      const std::uint64_t bait = (rng.next_below(2) == 0)
                                     ? ~std::uint64_t{0}
                                     : 0x8000000000000000ULL;
      for (std::size_t i = 0; i < 8; ++i) {
        mutated[8 + i] = static_cast<std::byte>((bait >> (8 * i)) & 0xff);
      }
      (void)serve::decode_response(mutated);
    });

    // Hostile namespaced keys: malformed gauge./hist. entries must decode
    // to plain entries (never crash, never vanish), and re-encoding the
    // decoded response must be idempotent.
    ++report.checks_run;
    try {
      serve::Response hostile;
      hostile.status = 0;
      hostile.type = serve::MsgType::kStats;
      hostile.stats.proto_version = 1;  // encode as a bare entry list
      const char* keys[] = {"gauge.", "hist.", "hist.x",
                            "hist..p50", "hist.x.bogus", "hist.x.p50"};
      for (const char* key : keys) {
        hostile.stats.entries.emplace_back(key, rng());
      }
      const serve::Response once =
          serve::decode_response(serve::encode_response(hostile));
      const serve::Response twice =
          serve::decode_response(serve::encode_response(once));
      if (once.stats.entries != twice.stats.entries ||
          once.stats.gauges != twice.stats.gauges ||
          once.stats.histograms != twice.stats.histograms) {
        fail("hostile namespaced keys: decode/encode not idempotent");
      }
    } catch (const std::exception& e) {
      fail(std::string("hostile namespaced keys crashed the decoder: ") +
           e.what());
    }
  }

  // Pure random bytes against both decoders: anything but a crash.
  std::vector<std::byte> garbage(rng.next_below(96));
  for (std::byte& b : garbage) {
    b = static_cast<std::byte>(rng.next_below(256));
  }
  ++report.checks_run;
  try {
    (void)serve::decode_request(garbage);
  } catch (const serve::WireError&) {
  } catch (const std::exception& e) {
    fail(std::string("decode_request(garbage) threw the wrong exception: ") +
         e.what());
  }
  ++report.checks_run;
  try {
    (void)serve::decode_response(garbage);
  } catch (const serve::WireError&) {
  } catch (const std::exception& e) {
    fail(std::string("decode_response(garbage) threw the wrong exception: ") +
         e.what());
  }
}

/// Synthetic canary used by the tests to exercise the shrinker: "fails"
/// whenever the scenario is larger than a fixed threshold, so a correct
/// shrinker must walk it down to the boundary deterministically.
void check_self_test(const Scenario& s, OracleReport& report) {
  ++report.checks_run;
  if (s.n >= 8 || s.k >= 4) {
    report.violations.push_back(
        {"self_test", "canary: n >= 8 or k >= 4 (n=" + std::to_string(s.n) +
                          ", k=" + std::to_string(s.k) + ")"});
  }
}

}  // namespace

bool OracleReport::violates(const std::string& name) const {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const OracleViolation& v) { return v.oracle == name; });
}

OracleReport run_oracles(const Scenario& scenario) {
  OracleReport report;
  try {
    switch (scenario.hostile) {
      case Hostility::kNone:
        run_benign_oracles(scenario, report);
        break;
      case Hostility::kOobAssignment:
        check_oob_assignment(scenario, report);
        break;
      case Hostility::kCorruptScheduleFile:
        check_corrupt_schedule_file(scenario, report);
        break;
      case Hostility::kCliGarbage:
        check_cli_garbage(scenario, report);
        break;
      case Hostility::kSelfTest:
        check_self_test(scenario, report);
        break;
      case Hostility::kCorruptInstanceFile:
        check_corrupt_instance_file(scenario, report);
        break;
      case Hostility::kCorruptArtifact:
        check_corrupt_artifact(scenario, report);
        break;
      case Hostility::kWireGarbage:
        check_wire_garbage(scenario, report);
        break;
    }
  } catch (const std::exception& e) {
    report.violations.push_back(
        {"harness", std::string("uncaught exception: ") + e.what()});
  }
  return report;
}

}  // namespace sweep::fuzz
