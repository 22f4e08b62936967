#include "util/simd.hpp"

namespace sweep::util::simd {
namespace {

Level probe_level() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2")) return Level::kAVX2;
#elif defined(__ARM_NEON)
  return Level::kNEON;
#endif
  return Level::kScalar;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kNEON:
      return "neon";
    case Level::kAVX2:
      return "avx2";
  }
  return "unknown";
}

Level detected_level() {
  static const Level level = probe_level();
  return level;
}

}  // namespace sweep::util::simd
