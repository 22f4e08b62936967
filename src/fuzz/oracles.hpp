#pragma once
// sweep_fuzz oracle bank: every check run against one (instance, scheduler)
// pair. Oracles are differential and invariant-based rather than golden:
//   - feasibility (validate_schedule) and completeness,
//   - lower-bound sanity: makespan >= max{ceil(nk/m), k, D, max critical path}
//     (Sections 4-5 of the paper),
//   - engine identity: list_schedule vs the preserved
//     list_schedule_reference oracle, bit-identical starts under level and
//     wide int64 priorities,
//   - random-delay invariants: an independent re-simulation of Algorithms 1
//     and 3 from the returned delays (layer loads, layer widths, makespan
//     as the sum of per-layer maxima),
//   - C2 realization: realize_c2_rounds round count <= 2*max_total_degree - 1
//     (the greedy edge-coloring guarantee) and message-count consistency
//     with C1,
//   - persistence: save -> load -> re-validate round trip, with C1/C2
//     recomputed on the reloaded schedule,
//   - harness determinism: bench::parallel_trials serial vs threaded must be
//     byte-identical.
// Hostile scenarios invert the expectation: malformed inputs (out-of-range
// assignments, corrupted schedule files, garbage CLI values) must be
// rejected with a clean throw, never silently accepted.

#include <string>
#include <vector>

#include "fuzz/scenario.hpp"

namespace sweep::fuzz {

struct OracleViolation {
  std::string oracle;   ///< stable oracle name (used by the shrinker)
  std::string message;  ///< human-readable description of the violation
};

struct OracleReport {
  std::size_t checks_run = 0;
  std::vector<OracleViolation> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// True iff some violation came from oracle `name`.
  [[nodiscard]] bool violates(const std::string& name) const;
};

/// Runs the full oracle bank for one scenario. Never throws for scenario
/// content: unexpected exceptions inside an oracle are reported as
/// violations of that oracle.
OracleReport run_oracles(const Scenario& scenario);

}  // namespace sweep::fuzz
