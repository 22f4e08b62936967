#pragma once
// TaskGraph: the flat, cache-friendly representation of ALL n*k tasks of a
// SweepInstance in one CSR structure, indexed by the scheduling core's
// flattened task id (tid = direction * n_cells + cell).
//
// The schedulers used to walk the per-direction SweepDags and re-derive cell
// and direction from every task id with a divide/modulo pair per edge; at
// bench scale (~3M tasks, ~5.7M edges per schedule run) that arithmetic and
// the per-direction indirection dominate the hot loop. TaskGraph stores, in
// contiguous arrays:
//   - successor offsets/targets already translated to task ids,
//   - per-task predecessor counts (the indegree vector every run copies),
//   - per-task levels (the paper's level(v, i), flattened),
//   - per-task cell ids (so processor lookup is one array read, no modulo).
// It is built once per instance and cached on dag::SweepInstance (thread-safe
// via std::once_flag) next to levels().
//
// Storage model: every accessor reads through a std::span view. build()
// allocates owned vectors and binds the views to them; from_views() binds
// the views to caller-provided memory (an mmap'ed sweep artifact, see
// sweep/artifact.hpp) without copying a byte — the serving path schedules
// straight out of the page cache. A borrowing graph never outlives its
// backing memory by contract (dag::Artifact owns both).
//
// Task ids and edge offsets are stored as 32-bit integers; build() rejects
// instances with >= 2^32 - 1 tasks or edges (far above anything the harness
// runs — that is a ~100x-paper-scale instance).

#include <cstdint>
#include <span>
#include <vector>

#include "sweep/dag.hpp"

namespace sweep::dag {

class TaskGraph {
 public:
  /// Flattened task id, 32-bit on purpose (see file comment).
  using Task = std::uint32_t;

  TaskGraph() { bind_owned(); }
  TaskGraph(const TaskGraph& other);
  TaskGraph& operator=(const TaskGraph& other);
  TaskGraph(TaskGraph&& other) noexcept;
  TaskGraph& operator=(TaskGraph&& other) noexcept;
  ~TaskGraph() = default;

  /// Builds the flat CSR from the per-direction DAGs. `levels[i][v]` must be
  /// the level of cell v in direction i (as produced by SweepDag::levels).
  static TaskGraph build(std::size_t n_cells, const std::vector<SweepDag>& dags,
                         const std::vector<std::vector<std::uint32_t>>& levels);

  /// Borrows caller-owned CSR arrays without copying (the zero-copy artifact
  /// path). The spans must satisfy the build() invariants — offsets has
  /// n_cells * n_directions + 1 monotone entries ending at targets.size(),
  /// the per-task arrays are all n_cells * n_directions long — and must
  /// outlive the returned graph and every copy of it. Validation is the
  /// caller's job (dag::Artifact checks on load); this is a constructor,
  /// not a parser.
  static TaskGraph from_views(std::size_t n_cells, std::size_t n_directions,
                              std::span<const std::uint32_t> offsets,
                              std::span<const Task> targets,
                              std::span<const std::uint32_t> indegree,
                              std::span<const std::uint32_t> level,
                              std::span<const std::uint32_t> cell,
                              std::uint32_t max_level,
                              std::uint32_t max_indegree);

  /// True when the arrays live in caller-owned memory (from_views).
  [[nodiscard]] bool borrows() const { return borrowed_; }

  [[nodiscard]] std::size_t n_tasks() const { return level_.size(); }
  [[nodiscard]] std::size_t n_edges() const { return targets_.size(); }
  [[nodiscard]] std::size_t n_cells() const { return n_cells_; }
  [[nodiscard]] std::size_t n_directions() const { return n_directions_; }

  /// Successor task ids of task t (same direction, downwind cells).
  [[nodiscard]] std::span<const Task> successors(std::size_t t) const {
    return {targets_.data() + offsets_[t], offsets_[t + 1] - offsets_[t]};
  }
  [[nodiscard]] std::uint32_t out_degree(std::size_t t) const {
    return offsets_[t + 1] - offsets_[t];
  }
  [[nodiscard]] std::uint32_t in_degree(std::size_t t) const {
    return indegree_[t];
  }
  [[nodiscard]] std::uint32_t level(std::size_t t) const { return level_[t]; }
  [[nodiscard]] std::uint32_t cell(std::size_t t) const { return cell_[t]; }
  [[nodiscard]] std::uint32_t max_level() const { return max_level_; }
  /// Largest predecessor count over all tasks (recorded in artifact
  /// headers).
  [[nodiscard]] std::uint32_t max_indegree() const { return max_indegree_; }

  /// Raw CSR arrays (offsets() has n_tasks() + 1 entries); the artifact
  /// writer stores them as sections verbatim.
  [[nodiscard]] std::span<const std::uint32_t> offsets() const {
    return offsets_;
  }
  [[nodiscard]] std::span<const Task> targets() const { return targets_; }

  /// Contiguous per-task arrays (all sized n_tasks()).
  [[nodiscard]] std::span<const std::uint32_t> indegrees() const {
    return indegree_;
  }
  [[nodiscard]] std::span<const std::uint32_t> levels() const { return level_; }
  [[nodiscard]] std::span<const std::uint32_t> cells() const { return cell_; }

 private:
  /// Points every view at the owned vectors (after build/copy/default-init).
  void bind_owned();

  std::size_t n_cells_ = 0;
  // Stored, not derived as n_tasks/n_cells: that division collapses to 0
  // for an instance with directions but no cells.
  std::size_t n_directions_ = 0;
  bool borrowed_ = false;

  // Owned storage; all empty (offsets: the single sentinel 0) when the graph
  // borrows external memory.
  std::vector<std::uint32_t> owned_offsets_ = {0};  // n_tasks + 1 entries
  std::vector<Task> owned_targets_;                 // n_edges entries
  std::vector<std::uint32_t> owned_indegree_;       // per task
  std::vector<std::uint32_t> owned_level_;          // per task
  std::vector<std::uint32_t> owned_cell_;           // per task

  // Views every accessor reads; bound to the owned vectors or to borrowed
  // memory (from_views).
  std::span<const std::uint32_t> offsets_;
  std::span<const Task> targets_;
  std::span<const std::uint32_t> indegree_;
  std::span<const std::uint32_t> level_;
  std::span<const std::uint32_t> cell_;

  std::uint32_t max_level_ = 0;
  std::uint32_t max_indegree_ = 0;
};

}  // namespace sweep::dag
