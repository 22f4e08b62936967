#include "fuzz/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/algorithms.hpp"
#include "mesh/extrude.hpp"
#include "mesh/structured.hpp"
#include "mesh/tri2d.hpp"
#include "mesh/zoo.hpp"
#include "sweep/directions.hpp"
#include "sweep/random_dag.hpp"

namespace sweep::fuzz {
namespace {

constexpr const char* kMagic = "sweepfuzz";
constexpr int kVersion = 1;

double clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

}  // namespace

Scenario sample_scenario(util::Rng& rng) {
  Scenario s;
  s.seed = rng();
  s.n = static_cast<std::uint32_t>(rng.next_below(200));
  s.k = static_cast<std::uint32_t>(1 + rng.next_below(6));
  s.layers = static_cast<std::uint32_t>(1 + rng.next_below(8));
  s.out_degree = rng.next_double(0.0, 2.5);
  s.scale = rng.next_double(0.08, 0.16);
  s.m = static_cast<std::uint32_t>(1 + rng.next_below(12));
  s.algorithm = static_cast<std::uint32_t>(
      rng.next_below(core::all_algorithms().size()));
  s.delay = 0;

  const double roll = rng.next_double();
  if (roll < 0.34) {
    s.family = Family::kRandomLayered;
  } else if (roll < 0.48) {
    s.family = Family::kRandomOrder;
  } else if (roll < 0.58) {
    s.family = Family::kChain;
  } else if (roll < 0.66) {
    s.family = Family::kZoo;
  } else if (roll < 0.73) {
    s.family = Family::kStructured;
  } else if (roll < 0.80) {
    s.family = Family::kExtruded;
  } else if (roll < 0.84) {
    s.family = Family::kEdgeless;
  } else if (roll < 0.90) {
    // High fan-in funnels: n is sampled around 256, so hub indegrees
    // straddle 255, the largest count one byte holds, and one hub id is
    // decremented hundreds of times in a single timestep.
    s.family = Family::kFanIn;
    s.n = static_cast<std::uint32_t>(200 + rng.next_below(120));
    return s;
  } else {
    // Hostile-input channel: feed malformed data to one untrusted path.
    // Draw {0..5} -> {1,2,3,5,6,7}: every channel except kNone and the
    // shrinker's synthetic kSelfTest canary.
    s.family = Family::kRandomLayered;
    s.n = static_cast<std::uint32_t>(1 + rng.next_below(40));
    const std::uint64_t pick = rng.next_below(6);
    s.hostile = static_cast<Hostility>(pick < 3 ? 1 + pick : 2 + pick);
    return s;
  }

  // Degenerate spice on top of the family: the corners that historically
  // break by-hand hardening.
  const double d = rng.next_double();
  if (d < 0.05) {
    // SweepInstance requires >= 1 direction, so k stays positive even here.
    s.family = Family::kEdgeless;
    s.n = static_cast<std::uint32_t>(rng.next_below(2));      // n in {0, 1}
    s.k = static_cast<std::uint32_t>(1 + rng.next_below(2));  // k in {1, 2}
  } else if (d < 0.10) {
    s.k = 1;
  } else if (d < 0.15) {
    s.m = 1;
  } else if (d < 0.20) {
    s.m = s.n * s.k * 3 + 17;  // m >> nk: more processors than tasks
  } else if (d < 0.28) {
    s.delay = static_cast<std::uint32_t>(1 + rng.next_below(50));
  }
  return s;
}

dag::SweepInstance materialize(const Scenario& s) {
  util::Rng rng(s.seed ^ 0xf00dULL);
  switch (s.family) {
    case Family::kRandomLayered: {
      const std::size_t n = std::max<std::uint32_t>(1, s.n);
      return dag::random_instance(n, s.k,
                                  std::max<std::uint32_t>(1, s.layers),
                                  s.out_degree, s.seed);
    }
    case Family::kRandomOrder: {
      const std::size_t n = std::max<std::uint32_t>(1, s.n);
      std::vector<dag::SweepDag> dags;
      dags.reserve(s.k);
      for (std::uint32_t i = 0; i < s.k; ++i) {
        util::Rng child = rng.fork();
        dags.push_back(dag::random_order_dag(
            n, s.out_degree, std::max<std::uint32_t>(1, s.layers), child));
      }
      return dag::SweepInstance(n, std::move(dags), "fuzz_order");
    }
    case Family::kChain:
      return dag::chain_instance(std::max<std::uint32_t>(1, s.n), s.k, s.seed);
    case Family::kZoo: {
      const auto& names = mesh::MeshZoo::names();
      const auto mesh = mesh::MeshZoo::by_name(
          names[s.seed % names.size()], clamp(s.scale, 0.08, 0.2), s.seed);
      // S_2 (8 directions) keeps zoo cases bounded while still exercising
      // the full geometric build path.
      return dag::build_instance(mesh, dag::level_symmetric(2));
    }
    case Family::kStructured: {
      const mesh::StructuredDims dims{1 + s.n % 5, 1 + (s.n / 5) % 4,
                                      1 + s.layers % 4};
      const auto mesh = mesh::make_structured_grid(dims);
      return dag::build_instance(
          mesh, dag::fibonacci_sphere(std::max<std::uint32_t>(1, s.k)));
    }
    case Family::kExtruded: {
      const auto base = mesh::make_grid_triangulation(
          2 + s.n % 4, 2 + (s.n / 4) % 4, 1.0, 1.0, 0.2, s.seed);
      mesh::ExtrudeOptions opts;
      opts.layers = 1 + s.layers % 4;
      opts.prism_layers = std::min<std::size_t>(opts.layers, s.layers % 2);
      opts.seed = s.seed;
      opts.name = "fuzz_extruded";
      const auto mesh = mesh::extrude_to_3d(base, opts);
      return dag::build_instance(
          mesh, dag::fibonacci_sphere(std::max<std::uint32_t>(1, s.k)));
    }
    case Family::kEdgeless: {
      const std::uint32_t k = std::max<std::uint32_t>(1, s.k);
      std::vector<dag::SweepDag> dags;
      dags.reserve(k);
      const std::vector<std::pair<dag::NodeId, dag::NodeId>> no_edges;
      for (std::uint32_t i = 0; i < k; ++i) {
        dags.emplace_back(s.n, no_edges);
      }
      return dag::SweepInstance(s.n, std::move(dags), "fuzz_edgeless");
    }
    case Family::kFanIn: {
      // Funnel: every source node feeds every hub sink, so each of the
      // `hubs` last nodes has indegree n - hubs — sampled around 255, the
      // largest count one byte holds. One finished front decrements the
      // same hub hundreds of times within a single timestep.
      const std::uint32_t n = std::max<std::uint32_t>(2, s.n);
      const std::uint32_t k = std::max<std::uint32_t>(1, s.k);
      const std::uint32_t hubs = std::min(n - 1, 1 + s.layers % 4);
      std::vector<std::pair<dag::NodeId, dag::NodeId>> edges;
      edges.reserve(static_cast<std::size_t>(n - hubs) * hubs);
      for (std::uint32_t src = 0; src < n - hubs; ++src) {
        for (std::uint32_t h = 0; h < hubs; ++h) {
          edges.emplace_back(src, n - 1 - h);
        }
      }
      std::vector<dag::SweepDag> dags;
      dags.reserve(k);
      for (std::uint32_t i = 0; i < k; ++i) {
        dags.emplace_back(n, edges);
      }
      return dag::SweepInstance(n, std::move(dags), "fuzz_fanin");
    }
  }
  throw std::logic_error("materialize: unknown scenario family");
}

std::string to_text(const Scenario& s) {
  std::ostringstream out;
  out << "family " << static_cast<std::uint32_t>(s.family) << "\n"
      << "seed " << s.seed << "\n"
      << "n " << s.n << "\n"
      << "k " << s.k << "\n"
      << "layers " << s.layers << "\n";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", s.out_degree);
  out << "out_degree " << buffer << "\n";
  std::snprintf(buffer, sizeof(buffer), "%.17g", s.scale);
  out << "scale " << buffer << "\n";
  out << "m " << s.m << "\n"
      << "algorithm " << s.algorithm << "\n"
      << "delay " << s.delay << "\n"
      << "hostile " << static_cast<std::uint32_t>(s.hostile) << "\n";
  return out.str();
}

Scenario scenario_from_text(std::istream& in) {
  Scenario s;
  std::string key;
  while (in >> key) {
    if (key == "family") {
      std::uint32_t v = 0;
      if (!(in >> v) || v > static_cast<std::uint32_t>(Family::kFanIn)) {
        throw std::runtime_error("sweepfuzz: bad family");
      }
      s.family = static_cast<Family>(v);
    } else if (key == "seed") {
      if (!(in >> s.seed)) throw std::runtime_error("sweepfuzz: bad seed");
    } else if (key == "n") {
      if (!(in >> s.n)) throw std::runtime_error("sweepfuzz: bad n");
    } else if (key == "k") {
      if (!(in >> s.k)) throw std::runtime_error("sweepfuzz: bad k");
    } else if (key == "layers") {
      if (!(in >> s.layers)) throw std::runtime_error("sweepfuzz: bad layers");
    } else if (key == "out_degree") {
      if (!(in >> s.out_degree)) {
        throw std::runtime_error("sweepfuzz: bad out_degree");
      }
    } else if (key == "scale") {
      if (!(in >> s.scale)) throw std::runtime_error("sweepfuzz: bad scale");
    } else if (key == "m") {
      if (!(in >> s.m)) throw std::runtime_error("sweepfuzz: bad m");
    } else if (key == "algorithm") {
      if (!(in >> s.algorithm) ||
          s.algorithm >= core::all_algorithms().size()) {
        throw std::runtime_error("sweepfuzz: bad algorithm");
      }
    } else if (key == "delay") {
      if (!(in >> s.delay)) throw std::runtime_error("sweepfuzz: bad delay");
    } else if (key == "hostile") {
      std::uint32_t v = 0;
      if (!(in >> v) ||
          v > static_cast<std::uint32_t>(Hostility::kWireGarbage)) {
        throw std::runtime_error("sweepfuzz: bad hostile");
      }
      s.hostile = static_cast<Hostility>(v);
    } else {
      throw std::runtime_error("sweepfuzz: unknown key '" + key + "'");
    }
  }
  return s;
}

void save_repro(const Repro& repro, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_repro: cannot open " + path);
  out << kMagic << ' ' << kVersion << "\n";
  out << "oracle " << (repro.oracle.empty() ? "-" : repro.oracle) << "\n";
  out << to_text(repro.scenario);
  if (!out) throw std::runtime_error("save_repro: write failed: " + path);
}

Repro load_repro(std::istream& in) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kMagic || version != kVersion) {
    throw std::runtime_error("load_repro: bad header (expected 'sweepfuzz 1')");
  }
  Repro repro;
  std::string key;
  if (!(in >> key) || key != "oracle" || !(in >> repro.oracle)) {
    throw std::runtime_error("load_repro: missing oracle line");
  }
  repro.scenario = scenario_from_text(in);
  return repro;
}

Repro load_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_repro: cannot open " + path);
  return load_repro(in);
}

}  // namespace sweep::fuzz
