#include "pipeline.hpp"

#include <fstream>
#include <vector>

#include "common.hpp"
#include "mesh/zoo.hpp"
#include "util/hash.hpp"

namespace perfbench {

using namespace sweep;

Front build_front(double scale, std::uint64_t seed) {
  Front front;
  const mesh::UnstructuredMesh mesh = layer("mesh.generate", [&] {
    return mesh::MeshZoo::tetonly_like(scale,
                                       stream_seed(seed, Stream::kMeshJitter));
  });
  front.dirs = dag::level_symmetric(4);
  front.instance = layer("sweep.build_instance", [&] {
    return std::make_unique<dag::SweepInstance>(dag::build_instance_parallel(
        mesh, front.dirs, 1e-9, &front.build_stats));
  });
  layer("sweep.task_graph", [&] { (void)front.instance->task_graph(); });
  front.graph = layer("partition.graph_from_mesh",
                      [&] { return partition::graph_from_mesh(mesh); });
  return front;
}

void compute_descendants(const dag::SweepInstance& instance) {
  layer("sweep.descendants", [&] {
    for (std::size_t i = 0; i < instance.n_directions(); ++i) {
      (void)instance.exact_descendant_counts(i);
    }
  });
}

std::shared_ptr<const dag::Artifact> pack_to_file(
    const dag::SweepInstance& instance, const dag::ArtifactWriteOptions& options,
    const std::string& path, std::size_t& bytes) {
  const std::vector<std::byte> image = layer(
      "sweep.artifact_pack", [&] { return dag::pack_artifact(instance, options); });
  layer("sweep.artifact_write", [&] {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  });
  bytes = image.size();
  return layer("sweep.artifact_load", [&] { return dag::Artifact::map_file(path); });
}

std::uint64_t schedule_hash(const core::Schedule& schedule) {
  return util::fnv1a_span<core::TimeStep>(
      schedule.starts(),
      util::fnv1a_span<core::ProcessorId>(schedule.assignment()));
}

}  // namespace perfbench
