#include "partition/multilevel.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "obs/obs.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace sweep::partition {
namespace {

using util::Rng;
constexpr VertexId kUnmatched = 0xffffffffu;

// ---------------------------------------------------------------------------
// Coarsening: heavy-edge matching + contraction.
// ---------------------------------------------------------------------------

struct CoarseLevel {
  Graph graph;
  std::vector<VertexId> fine_to_coarse;
};

CoarseLevel coarsen_once(const Graph& fine, Rng& rng) {
  SWEEP_OBS_COUNTER_ADD("partition.coarsen_levels", 1);
  const std::size_t n = fine.n_vertices();
  std::vector<VertexId> match(n, kUnmatched);
  std::vector<std::uint32_t> visit_order(n);
  for (std::size_t i = 0; i < n; ++i) visit_order[i] = static_cast<VertexId>(i);
  rng.shuffle(visit_order);

  for (VertexId v : visit_order) {
    if (match[v] != kUnmatched) continue;
    const auto nbrs = fine.neighbors(v);
    const auto weights = fine.edge_weights(v);
    VertexId best = kUnmatched;
    std::int64_t best_weight = -1;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId w = nbrs[i];
      if (w == v || match[w] != kUnmatched) continue;
      if (weights[i] > best_weight) {
        best_weight = weights[i];
        best = w;
      }
    }
    if (best != kUnmatched) {
      match[v] = best;
      match[best] = v;
    } else {
      match[v] = v;  // singleton
    }
  }

  CoarseLevel level;
  level.fine_to_coarse.assign(n, kUnmatched);
  std::vector<std::int64_t> coarse_vwgt;
  for (VertexId v = 0; v < n; ++v) {
    if (level.fine_to_coarse[v] != kUnmatched) continue;
    const VertexId partner = match[v];
    const auto cid = static_cast<VertexId>(coarse_vwgt.size());
    level.fine_to_coarse[v] = cid;
    std::int64_t weight = fine.vertex_weight(v);
    if (partner != v) {
      level.fine_to_coarse[partner] = cid;
      weight += fine.vertex_weight(partner);
    }
    coarse_vwgt.push_back(weight);
  }

  // Contract edges: accumulate weights between coarse endpoints.
  const std::size_t nc = coarse_vwgt.size();
  std::vector<std::unordered_map<VertexId, std::int64_t>> adj(nc);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId cv = level.fine_to_coarse[v];
    const auto nbrs = fine.neighbors(v);
    const auto weights = fine.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId cw = level.fine_to_coarse[nbrs[i]];
      if (cw == cv) continue;
      adj[cv][cw] += weights[i];
    }
  }
  std::vector<std::uint32_t> offsets(nc + 1, 0);
  for (std::size_t c = 0; c < nc; ++c) {
    offsets[c + 1] = offsets[c] + static_cast<std::uint32_t>(adj[c].size());
  }
  std::vector<VertexId> neighbors(offsets[nc]);
  std::vector<std::int64_t> edge_weights(offsets[nc]);
  for (std::size_t c = 0; c < nc; ++c) {
    std::size_t cursor = offsets[c];
    for (const auto& [w, wgt] : adj[c]) {
      neighbors[cursor] = w;
      edge_weights[cursor] = wgt;
      ++cursor;
    }
  }
  level.graph = Graph(std::move(offsets), std::move(neighbors),
                      std::move(edge_weights), std::move(coarse_vwgt));
  return level;
}

// ---------------------------------------------------------------------------
// Initial bisection: greedy graph growing from a random seed, best of tries.
// part[v] in {0,1}; grows side 0 until it reaches target0.
// ---------------------------------------------------------------------------

Partition greedy_grow_bisection(const Graph& graph, std::int64_t target0,
                                std::size_t tries, Rng& rng) {
  const std::size_t n = graph.n_vertices();
  Partition best(n, 1);
  std::int64_t best_cut = std::numeric_limits<std::int64_t>::max();

  for (std::size_t attempt = 0; attempt < std::max<std::size_t>(tries, 1);
       ++attempt) {
    Partition part(n, 1);
    std::vector<char> in_frontier(n, 0);
    // Max-gain frontier: prefer vertices with most connectivity to side 0.
    using Entry = std::pair<std::int64_t, VertexId>;
    std::priority_queue<Entry> frontier;
    std::vector<std::int64_t> gain(n, 0);

    const auto seed_vertex = static_cast<VertexId>(rng.next_below(n));
    frontier.push({0, seed_vertex});
    in_frontier[seed_vertex] = 1;
    std::int64_t weight0 = 0;

    while (weight0 < target0 && !frontier.empty()) {
      const auto [g, v] = frontier.top();
      frontier.pop();
      if (part[v] == 0 || g != gain[v]) continue;  // stale entry
      part[v] = 0;
      weight0 += graph.vertex_weight(v);
      const auto nbrs = graph.neighbors(v);
      const auto weights = graph.edge_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId w = nbrs[i];
        if (part[w] == 0) continue;
        gain[w] += weights[i];
        frontier.push({gain[w], w});
        in_frontier[w] = 1;
      }
      // Disconnected graph: restart growth from a random unassigned vertex.
      if (frontier.empty() && weight0 < target0) {
        for (std::size_t probe = 0; probe < n; ++probe) {
          const auto u = static_cast<VertexId>(rng.next_below(n));
          if (part[u] == 1) {
            frontier.push({gain[u], u});
            break;
          }
        }
      }
    }
    const std::int64_t cut = edge_cut(graph, part);
    if (cut < best_cut) {
      best_cut = cut;
      best = part;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// FM refinement with move rollback (bisection only).
// ---------------------------------------------------------------------------

void fm_refine(const Graph& graph, Partition& part, std::int64_t target0,
               double tolerance, std::size_t passes) {
  SWEEP_OBS_COUNTER_ADD("partition.fm_refines", 1);
  const std::size_t n = graph.n_vertices();
  const std::int64_t total = graph.total_vertex_weight();
  const std::int64_t target1 = total - target0;
  const auto max0 = static_cast<std::int64_t>(static_cast<double>(target0) * tolerance) + 1;
  const auto max1 = static_cast<std::int64_t>(static_cast<double>(target1) * tolerance) + 1;

  std::vector<std::int64_t> gain(n);
  auto compute_gain = [&](VertexId v) {
    std::int64_t g = 0;
    const auto nbrs = graph.neighbors(v);
    const auto weights = graph.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      g += part[nbrs[i]] == part[v] ? -weights[i] : weights[i];
    }
    return g;
  };

  // Balance repair before hill climbing. The starting partition (greedy
  // growing on the coarsest graph, or a projection of a coarser solution)
  // may violate the tolerance, and the gain-driven passes below cannot fix
  // that: rollback keeps only gain-positive prefixes. Force-move the
  // cheapest (max-gain) vertices off the heavy side until both sides fit;
  // each vertex moves at most once, so the loop terminates even when the
  // tolerance is infeasible for the given vertex weights.
  {
    std::int64_t weight0 = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (part[v] == 0) weight0 += graph.vertex_weight(v);
    }
    std::vector<char> moved(n, 0);
    using Entry = std::pair<std::int64_t, VertexId>;
    while (weight0 > max0 || total - weight0 > max1) {
      const std::uint32_t heavy = weight0 > max0 ? 0 : 1;
      std::priority_queue<Entry> heap;
      for (VertexId v = 0; v < n; ++v) {
        if (part[v] == heavy && !moved[v]) heap.push({compute_gain(v), v});
      }
      if (heap.empty()) break;
      const VertexId v = heap.top().second;
      moved[v] = 1;
      part[v] = 1 - heavy;
      weight0 += heavy == 0 ? -graph.vertex_weight(v) : graph.vertex_weight(v);
    }
  }

  for (std::size_t pass = 0; pass < passes; ++pass) {
    std::int64_t weight0 = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (part[v] == 0) weight0 += graph.vertex_weight(v);
    }

    using Entry = std::pair<std::int64_t, VertexId>;
    std::priority_queue<Entry> heap;
    std::vector<char> locked(n, 0);
    for (VertexId v = 0; v < n; ++v) {
      gain[v] = compute_gain(v);
      heap.push({gain[v], v});
    }

    std::vector<VertexId> move_sequence;
    move_sequence.reserve(n);
    std::int64_t cumulative = 0;
    std::int64_t best_cumulative = 0;
    std::size_t best_prefix = 0;

    while (!heap.empty()) {
      const auto [g, v] = heap.top();
      heap.pop();
      if (locked[v] || g != gain[v]) continue;
      // Balance feasibility of moving v to the other side.
      const std::int64_t vw = graph.vertex_weight(v);
      const std::int64_t new_w0 = part[v] == 0 ? weight0 - vw : weight0 + vw;
      if (new_w0 > max0 || total - new_w0 > max1) continue;

      locked[v] = 1;
      part[v] = 1 - part[v];
      weight0 = new_w0;
      cumulative += g;
      move_sequence.push_back(v);
      if (cumulative > best_cumulative) {
        best_cumulative = cumulative;
        best_prefix = move_sequence.size();
      }
      const auto nbrs = graph.neighbors(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId w = nbrs[i];
        if (locked[w]) continue;
        gain[w] = compute_gain(w);
        heap.push({gain[w], w});
      }
    }

    // Roll back past the best prefix.
    for (std::size_t i = move_sequence.size(); i > best_prefix; --i) {
      const VertexId v = move_sequence[i - 1];
      part[v] = 1 - part[v];
    }
    if (best_cumulative <= 0) break;  // no improvement this pass
  }
}

// ---------------------------------------------------------------------------
// Multilevel bisection (recursive through coarsening levels).
// ---------------------------------------------------------------------------

Partition multilevel_bisect(const Graph& graph, std::int64_t target0,
                            const MultilevelOptions& options, Rng& rng) {
  const std::size_t n = graph.n_vertices();
  if (n <= std::max<std::size_t>(options.coarsest_size, 8)) {
    Partition part =
        greedy_grow_bisection(graph, target0, options.initial_tries, rng);
    fm_refine(graph, part, target0, options.balance_tolerance,
              options.fm_passes);
    return part;
  }
  CoarseLevel level = coarsen_once(graph, rng);
  if (level.graph.n_vertices() >
      static_cast<std::size_t>(0.95 * static_cast<double>(n))) {
    // Coarsening stalled (e.g. star graphs): partition directly.
    Partition part =
        greedy_grow_bisection(graph, target0, options.initial_tries, rng);
    fm_refine(graph, part, target0, options.balance_tolerance,
              options.fm_passes);
    return part;
  }
  const Partition coarse_part =
      multilevel_bisect(level.graph, target0, options, rng);
  Partition part(n);
  for (VertexId v = 0; v < n; ++v) {
    part[v] = coarse_part[level.fine_to_coarse[v]];
  }
  fm_refine(graph, part, target0, options.balance_tolerance, options.fm_passes);
  return part;
}

// ---------------------------------------------------------------------------
// Recursive bisection to k parts.
//
// Every tree node derives its Rng from util::split_seed(options.seed, id)
// where the root is id 1 and node id's children are 2*id and 2*id+1 — no
// state is threaded through the recursion, so sibling subproblems are
// independent and can run as pool tasks while staying bit-identical to the
// serial reference recursion.
// ---------------------------------------------------------------------------

struct Subgraph {
  Graph graph;
  std::vector<VertexId> to_global;
};

Subgraph extract(const Graph& graph, const std::vector<VertexId>& vertices) {
  Subgraph sub;
  sub.to_global = vertices;
  // Flat parent-local -> sub-local map (the parent ids are dense); the
  // old unordered_map lookup dominated extraction at bench scale.
  std::vector<VertexId> to_local(graph.n_vertices(), kUnmatched);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    to_local[vertices[i]] = static_cast<VertexId>(i);
  }
  std::vector<std::uint32_t> offsets(vertices.size() + 1, 0);
  std::vector<VertexId> neighbors;
  std::vector<std::int64_t> edge_weights;
  std::vector<std::int64_t> vertex_weights(vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const VertexId g = vertices[i];
    vertex_weights[i] = graph.vertex_weight(g);
    const auto nbrs = graph.neighbors(g);
    const auto weights = graph.edge_weights(g);
    for (std::size_t e = 0; e < nbrs.size(); ++e) {
      const VertexId local = to_local[nbrs[e]];
      if (local == kUnmatched) continue;
      neighbors.push_back(local);
      edge_weights.push_back(weights[e]);
    }
    offsets[i + 1] = static_cast<std::uint32_t>(neighbors.size());
  }
  sub.graph = Graph(std::move(offsets), std::move(neighbors),
                    std::move(edge_weights), std::move(vertex_weights));
  return sub;
}

/// The original hash-map extraction, kept verbatim as the reference
/// recursion's implementation, so Multilevel.ParallelBitIdenticalToReference
/// checks the production pipeline against the preserved baseline. Produces
/// exactly the same subgraph as extract() — vertices and edges are visited
/// in the same order; only the id-lookup structure differs.
Subgraph extract_reference(const Graph& graph,
                           const std::vector<VertexId>& vertices) {
  Subgraph sub;
  sub.to_global = vertices;
  std::unordered_map<VertexId, VertexId> to_local;
  to_local.reserve(vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    to_local[vertices[i]] = static_cast<VertexId>(i);
  }
  std::vector<std::uint32_t> offsets(vertices.size() + 1, 0);
  std::vector<VertexId> neighbors;
  std::vector<std::int64_t> edge_weights;
  std::vector<std::int64_t> vertex_weights(vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const VertexId g = vertices[i];
    vertex_weights[i] = graph.vertex_weight(g);
    const auto nbrs = graph.neighbors(g);
    const auto weights = graph.edge_weights(g);
    for (std::size_t e = 0; e < nbrs.size(); ++e) {
      const auto it = to_local.find(nbrs[e]);
      if (it == to_local.end()) continue;
      neighbors.push_back(it->second);
      edge_weights.push_back(weights[e]);
    }
    offsets[i + 1] = static_cast<std::uint32_t>(neighbors.size());
  }
  sub.graph = Graph(std::move(offsets), std::move(neighbors),
                    std::move(edge_weights), std::move(vertex_weights));
  return sub;
}

/// Don't spawn a pool task for subproblems below this many vertices: the
/// submit + wake cost exceeds the bisection work (value is not tuned finely;
/// determinism does not depend on it).
constexpr std::size_t kParallelBranchMinVertices = 512;

void recursive_bisect(const Graph& graph, const std::vector<VertexId>& to_global,
                      std::size_t k, std::uint32_t first_block,
                      std::uint64_t node_id, const MultilevelOptions& options,
                      Partition& global_part, bool parallel,
                      bool reference_extract) {
  if (k <= 1) {
    for (VertexId v : to_global) global_part[v] = first_block;
    return;
  }
  Rng rng = Rng::for_stream(options.seed, node_id);
  const std::size_t k0 = k / 2;
  const std::int64_t target0 =
      graph.total_vertex_weight() * static_cast<std::int64_t>(k0) /
      static_cast<std::int64_t>(k);
  const Partition part = multilevel_bisect(graph, target0, options, rng);

  std::vector<VertexId> side0;
  std::vector<VertexId> side1;
  for (VertexId v = 0; v < graph.n_vertices(); ++v) {
    (part[v] == 0 ? side0 : side1).push_back(v);
  }
  // Degenerate split guard: force at least one vertex per side when k > 1.
  if (side0.empty() && !side1.empty()) {
    side0.push_back(side1.back());
    side1.pop_back();
  } else if (side1.empty() && !side0.empty()) {
    side1.push_back(side0.back());
    side0.pop_back();
  }

  auto descend = [&](const std::vector<VertexId>& side, std::size_t kk,
                     std::uint32_t base, std::uint64_t child_id) {
    if (side.empty()) return;
    Subgraph sub = reference_extract ? extract_reference(graph, side)
                                     : extract(graph, side);
    std::vector<VertexId> global_ids(side.size());
    for (std::size_t i = 0; i < side.size(); ++i) {
      global_ids[i] = to_global[side[i]];
    }
    sub.to_global = std::move(global_ids);
    recursive_bisect(sub.graph, sub.to_global, kk, base, child_id, options,
                     global_part, parallel, reference_extract);
  };

  // The two branches touch disjoint global_part entries and only read the
  // shared parent graph, so they can run concurrently.
  if (parallel && std::min(side0.size(), side1.size()) >=
                      kParallelBranchMinVertices) {
    SWEEP_OBS_COUNTER_ADD("partition.parallel_branches", 1);
    util::parallel_for(
        2,
        [&](std::size_t side) {
          if (side == 0) {
            descend(side0, k0, first_block, 2 * node_id);
          } else {
            descend(side1, k - k0,
                    first_block + static_cast<std::uint32_t>(k0),
                    2 * node_id + 1);
          }
        },
        options.jobs);
  } else {
    descend(side0, k0, first_block, 2 * node_id);
    descend(side1, k - k0, first_block + static_cast<std::uint32_t>(k0),
            2 * node_id + 1);
  }
}

}  // namespace

Partition multilevel_partition(const Graph& graph,
                               const MultilevelOptions& options) {
  SWEEP_OBS_SPAN_ARGS("partition.multilevel", "n_vertices",
                      static_cast<std::int64_t>(graph.n_vertices()), "n_parts",
                      static_cast<std::int64_t>(options.n_parts));
  SWEEP_OBS_TIMER("partition.multilevel");
  SWEEP_OBS_COUNTER_ADD("partition.multilevel.runs", 1);
  if (options.n_parts == 0) {
    throw std::invalid_argument("multilevel_partition: n_parts must be >= 1");
  }
  const std::size_t n = graph.n_vertices();
  Partition part(n, 0);
  if (options.n_parts == 1 || n == 0) return part;
  std::vector<VertexId> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<VertexId>(i);
  recursive_bisect(graph, all, std::min(options.n_parts, n), 0, /*node_id=*/1,
                   options, part, /*parallel=*/options.jobs != 1,
                   /*reference_extract=*/false);
  return part;
}

Partition multilevel_partition_reference(const Graph& graph,
                                         const MultilevelOptions& options) {
  if (options.n_parts == 0) {
    throw std::invalid_argument(
        "multilevel_partition_reference: n_parts must be >= 1");
  }
  const std::size_t n = graph.n_vertices();
  Partition part(n, 0);
  if (options.n_parts == 1 || n == 0) return part;
  std::vector<VertexId> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<VertexId>(i);
  recursive_bisect(graph, all, std::min(options.n_parts, n), 0, /*node_id=*/1,
                   options, part, /*parallel=*/false,
                   /*reference_extract=*/true);
  return part;
}

Partition partition_into_blocks(const Graph& graph, std::size_t block_size,
                                MultilevelOptions options) {
  if (block_size == 0) {
    throw std::invalid_argument("partition_into_blocks: block_size must be >= 1");
  }
  const std::size_t n = graph.n_vertices();
  options.n_parts = std::max<std::size_t>(1, (n + block_size - 1) / block_size);
  return multilevel_partition(graph, options);
}

}  // namespace sweep::partition
