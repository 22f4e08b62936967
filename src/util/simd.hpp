#pragma once
// CPU vector-level probe, reported in benchmark host fingerprints so that
// results taken on machines with different instruction sets are told apart.

#include <cstdint>

namespace sweep::util::simd {

/// Instruction-set levels, ordered from least to most capable.
enum class Level : std::uint8_t { kScalar = 0, kNEON = 1, kAVX2 = 2 };

[[nodiscard]] const char* level_name(Level level);

/// The best level this build + this machine supports (probed once: AVX2 via
/// __builtin_cpu_supports on x86-64, NEON by compilation target).
[[nodiscard]] Level detected_level();

}  // namespace sweep::util::simd
