// Runtime CPU-feature detection and its two config channels (the
// SPECOMP_CPU_LIMIT clamp grammar and the test override) — the foundation
// the simd kernel tiers trust before executing wide instructions.
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

TEST(CpuFeatures, ParseCpuLimitGrammar) {
  const cpu::Features detected = full_features();

  const auto native = cpu::parse_cpu_limit("native", detected);
  ASSERT_TRUE(native.has_value());
  EXPECT_TRUE(native->usable_avx512());

  const auto avx2 = cpu::parse_cpu_limit("avx2", detected);
  ASSERT_TRUE(avx2.has_value());
  EXPECT_TRUE(avx2->usable_avx2());
  EXPECT_FALSE(avx2->usable_avx512());

  const auto generic = cpu::parse_cpu_limit("generic", detected);
  ASSERT_TRUE(generic.has_value());
  EXPECT_FALSE(generic->usable_avx2());
  EXPECT_FALSE(generic->usable_avx512());
  EXPECT_TRUE(generic->sse2);  // the baseline ISA is never clamped away

  EXPECT_FALSE(cpu::parse_cpu_limit("", detected).has_value());
  EXPECT_FALSE(cpu::parse_cpu_limit("avx512", detected).has_value());
  EXPECT_FALSE(cpu::parse_cpu_limit("AVX2", detected).has_value());
}

TEST(CpuFeatures, LimitNeverInventsFeatures) {
  // Clamping a host without SIMD keeps it without SIMD.
  const cpu::Features none;
  for (const char* limit : {"native", "avx2", "generic"}) {
    const auto capped = cpu::parse_cpu_limit(limit, none);
    ASSERT_TRUE(capped.has_value()) << limit;
    EXPECT_FALSE(capped->usable_avx2()) << limit;
    EXPECT_FALSE(capped->usable_avx512()) << limit;
  }
}

TEST(CpuFeatures, OverrideForTestingReplacesAndRestores) {
  const cpu::Features before = cpu::features();

  cpu::Features forced;  // a no-SIMD host
  forced.sse2 = true;
  cpu::override_for_testing(forced);
  EXPECT_FALSE(cpu::features().usable_avx2());
  EXPECT_FALSE(cpu::features().usable_avx512());

  cpu::override_for_testing(full_features());
  EXPECT_TRUE(cpu::features().usable_avx512());

  cpu::override_for_testing(std::nullopt);
  const cpu::Features after = cpu::features();
  EXPECT_EQ(after.usable_avx2(), before.usable_avx2());
  EXPECT_EQ(after.usable_avx512(), before.usable_avx512());
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
  // Repeated raw detection agrees with itself, and the x86 implication
  // chain holds (avx2 hosts report avx; avx512 hosts report avx2).
  const cpu::Features a = cpu::detect();
  const cpu::Features b = cpu::detect();
  EXPECT_EQ(a.avx2, b.avx2);
  EXPECT_EQ(a.avx512f, b.avx512f);
  EXPECT_EQ(a.os_avx, b.os_avx);
  if (a.avx2) {
    EXPECT_TRUE(a.avx);
  }
  if (a.avx512f) {
    EXPECT_TRUE(a.avx2);
  }
}

}  // namespace
