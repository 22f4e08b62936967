#pragma once
// Descendant counting for the "descendant priorities" heuristic (Plimpton et
// al. [15], reproduced in the paper's Section 5.2).
//
// Exact counting of |descendants(v)| is a transitive closure over
// reachability bitsets. The naive formulation keeps the FULL n x n matrix
// resident (n^2/8 bytes) and streams whole rows through the OR loop.
// exact_descendant_counts instead relabels the nodes by topological rank
// and processes the matrix in column strips of kTileWords * 64 = 512 ranks
// (DESIGN.md §11):
//  - Triangle: edges only go up in rank, so strip [a, a+512) is reachable
//    only from ranks below a+512. Each strip walks those ranks downwards
//    and skips the rest, which halves the word operations.
//  - Strip parallelism: strips are independent and run across
//    min(executors, strips) workers. Each worker owns one strip buffer of
//    one cache line (64 bytes) per node — 64n bytes, whatever n^2 is — plus
//    an 8n-byte partial-count array. A worker takes its strips in
//    ascending order, so the rows above the triangle in its buffer are
//    never written and the per-edge OR stays branch-free.
// The per-worker partial counts are integer sums, so the result is
// bit-identical to exact_descendant_counts_reference (the preserved naive
// implementation, kept as a differential oracle) for any `jobs`. At paper
// scale (tetonly 1.0, n = 32,490, S_4's 24 directions, 4-vCPU Xeon) the
// closure over all directions fell from 2.51 s (one full-height strip at a
// time on one core) to 0.42 s.
//
// The estimated variant is Cohen's classic reachability-size estimator:
// assign i.i.d. Exp(1) labels to nodes, propagate the minimum over
// descendants in reverse topological order, repeat r times;
// |desc(v)| ~= (r-1)/sum_of_mins. Almost-linear, preserves the priority
// *order* with high probability, which is all the heuristic needs.

#include <cstdint>
#include <vector>

#include "sweep/dag.hpp"
#include "util/rng.hpp"

namespace sweep::dag {

/// Columns per strip, in 64-bit words: 8 words = 512 columns = one 64-byte
/// cache line of scratch per node.
inline constexpr std::size_t kTileWords = 8;

/// Largest DAG the adaptive descendant_counts computes exactly; above this
/// it falls back to the Cohen estimator. Shared with the priority
/// constructors so their exact/estimated split matches bit-for-bit.
inline constexpr std::size_t kDefaultExactThreshold = 1u << 13;

/// Observability for the tiled counter: what a caller (or test) needs to
/// verify the documented memory bound without an allocator shim.
struct TiledCountStats {
  std::size_t strips = 0;  ///< number of (kTileWords * 64)-column strips
  /// Executors the strips were spread over: min(executors, strips).
  std::size_t workers = 0;
  /// Bytes of each worker's strip buffer: kTileWords 64-bit words per
  /// node, reused across that worker's strips — n * tile_width / 8 = 64n
  /// bytes, never O(n^2). (Each worker also keeps an n-entry u64 partial
  /// count, and the call one rank-relabelled copy of the successor CSR.)
  std::size_t scratch_bytes_per_worker = 0;
};

/// Exact |descendants(v)| (excluding v itself) for every node, computed in
/// triangular (kTileWords * 64)-rank strips spread over `jobs` executors
/// (0 = all pool workers plus the caller, 1 = serial; see file comment).
/// The result does not depend on `jobs`. Throws std::invalid_argument for
/// graphs with more than `max_nodes` nodes (cost guard: work is
/// Theta(n*m/64) regardless of tiling).
std::vector<std::uint64_t> exact_descendant_counts(
    const SweepDag& dag, std::size_t max_nodes = 1u << 14,
    TiledCountStats* stats = nullptr, std::size_t jobs = 0);

/// The preserved naive implementation (full n x n reachability bitset),
/// kept as the differential oracle for the tiled variant. Same contract.
std::vector<std::uint64_t> exact_descendant_counts_reference(
    const SweepDag& dag, std::size_t max_nodes = 1u << 14);

/// Cohen estimator with `rounds` independent exponential labelings
/// (rounds >= 2). Returns estimated |descendants(v)| excluding v.
std::vector<double> estimated_descendant_counts(const SweepDag& dag,
                                                util::Rng& rng,
                                                std::size_t rounds = 12);

/// Adaptive: exact (tiled) when the DAG is small enough, estimated otherwise.
std::vector<double> descendant_counts(
    const SweepDag& dag, util::Rng& rng,
    std::size_t exact_threshold = kDefaultExactThreshold);

/// Adaptive twin routed through exact_descendant_counts_reference; consumes
/// `rng` identically to descendant_counts, so the two agree bit-for-bit.
std::vector<double> descendant_counts_reference(
    const SweepDag& dag, util::Rng& rng,
    std::size_t exact_threshold = kDefaultExactThreshold);

}  // namespace sweep::dag
