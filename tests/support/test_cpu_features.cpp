// Runtime CPU-feature detection, which names the host ISA in benchmark
// fingerprints and host lines.
#include "support/cpu_features.hpp"

#include <gtest/gtest.h>

namespace {

using namespace specomp::support;

cpu::Features full_features() {
  cpu::Features f;
  f.sse2 = f.fma = f.avx = f.avx2 = true;
  f.avx512f = f.avx512dq = true;
  f.os_avx = f.os_avx512 = true;
  return f;
}

TEST(CpuFeatures, UsableTiersRequireIsaAndOsSupport) {
  cpu::Features f = full_features();
  EXPECT_TRUE(f.usable_avx2());
  EXPECT_TRUE(f.usable_avx512());

  // Each ingredient is individually load-bearing.
  f = full_features();
  f.fma = false;
  EXPECT_FALSE(f.usable_avx2());
  f = full_features();
  f.os_avx = false;
  EXPECT_FALSE(f.usable_avx2());
  f = full_features();
  f.avx512dq = false;
  EXPECT_TRUE(f.usable_avx2());
  EXPECT_FALSE(f.usable_avx512());
  f = full_features();
  f.os_avx512 = false;
  EXPECT_FALSE(f.usable_avx512());

  EXPECT_FALSE(cpu::Features{}.usable_avx2());
  EXPECT_FALSE(cpu::Features{}.usable_avx512());
}

TEST(CpuFeatures, DescribeListsActiveFeatures) {
  EXPECT_EQ(cpu::describe(cpu::Features{}), "generic");
  const std::string all = cpu::describe(full_features());
  EXPECT_NE(all.find("avx2"), std::string::npos);
  EXPECT_NE(all.find("fma"), std::string::npos);
  EXPECT_NE(all.find("avx512dq"), std::string::npos);
  EXPECT_NE(all.find("os-zmm"), std::string::npos);
}

TEST(CpuFeatures, DetectIsStableAndConsistent) {
  // Repeated raw detection agrees with itself and with the cached copy,
  // and the x86 implication chain holds (avx2 hosts report avx; avx512
  // hosts report avx2).
  const cpu::Features a = cpu::detect();
  const cpu::Features b = cpu::detect();
  EXPECT_EQ(a.avx2, b.avx2);
  EXPECT_EQ(a.avx512f, b.avx512f);
  EXPECT_EQ(a.os_avx, b.os_avx);
  EXPECT_EQ(cpu::describe(cpu::features()), cpu::describe(a));
  if (a.avx2) {
    EXPECT_TRUE(a.avx);
  }
  if (a.avx512f) {
    EXPECT_TRUE(a.avx2);
  }
}

}  // namespace
