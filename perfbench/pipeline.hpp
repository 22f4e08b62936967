#pragma once
// The library calls both workloads share, each wrapped in its layer span:
// the front of the pipeline (zoo mesh -> sweep instance -> task graph ->
// mesh graph) and the operator's pack (exact descendants, pack_artifact,
// write, Artifact::map_file).
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/schedule.hpp"
#include "partition/graph.hpp"
#include "sweep/artifact.hpp"
#include "sweep/directions.hpp"
#include "sweep/instance.hpp"

namespace perfbench {

struct Front {
  sweep::dag::DirectionSet dirs;
  std::unique_ptr<sweep::dag::SweepInstance> instance;
  sweep::dag::InstanceBuildStats build_stats;
  sweep::partition::Graph graph;  ///< cell adjacency, for the partitioner
};

/// MeshZoo tetonly at `scale` with the run's mesh jitter, swept over
/// level_symmetric(4) (k = 24), with the task graph built.
Front build_front(double scale, std::uint64_t seed);

/// exact_descendant_counts over all directions (cached on the instance, so
/// a later pack_artifact reuses them).
void compute_descendants(const sweep::dag::SweepInstance& instance);

/// pack_artifact, write to `path`, Artifact::map_file. `bytes` receives the
/// artifact size.
std::shared_ptr<const sweep::dag::Artifact> pack_to_file(
    const sweep::dag::SweepInstance& instance,
    const sweep::dag::ArtifactWriteOptions& options, const std::string& path,
    std::size_t& bytes);

/// FNV-1a over the start times, then the assignment: the daemon's
/// schedule_hash.
[[nodiscard]] std::uint64_t schedule_hash(const sweep::core::Schedule& schedule);

}  // namespace perfbench
