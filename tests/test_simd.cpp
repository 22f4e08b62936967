// util/simd.hpp: the CPU vector-level probe that benchmark host
// fingerprints report.

#include <gtest/gtest.h>

#include "util/simd.hpp"

namespace sweep {
namespace {

using util::simd::Level;

TEST(SimdProbe, LevelNamesAreStable) {
  EXPECT_STREQ(util::simd::level_name(Level::kScalar), "scalar");
  EXPECT_STREQ(util::simd::level_name(Level::kNEON), "neon");
  EXPECT_STREQ(util::simd::level_name(Level::kAVX2), "avx2");
}

TEST(SimdProbe, DetectedLevelIsKnownAndStable) {
  const Level level = util::simd::detected_level();
  EXPECT_STRNE(util::simd::level_name(level), "unknown");
  EXPECT_EQ(util::simd::detected_level(), level);
#if !defined(__x86_64__) && !defined(__i386__) && !defined(__ARM_NEON)
  EXPECT_EQ(level, Level::kScalar);
#endif
}

}  // namespace
}  // namespace sweep
