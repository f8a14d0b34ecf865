// The explicit simd tiers' pinned contract (simd.hpp, DESIGN.md §11):
// <= 1e-12 max-abs deviation vs the scalar oracle over every block shape
// (tails, skip offsets, source-tile boundaries), and bit-identical output
// across repeated calls for a fixed tier.  Tiers the build or host lacks
// are skipped, and the compiled/usable predicates must stay consistent
// with the cpu-feature module.
#include "nbody/kernels/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nbody/init.hpp"
#include "nbody/kernels/dispatch.hpp"
#include "nbody/kernels/kernel.hpp"
#include "support/cpu_features.hpp"

namespace {

using namespace specomp;
using nbody::Vec3;
using nbody::kernels::kSourceTile;
using nbody::kernels::SimdTier;
using nbody::kernels::SoaView;

constexpr std::size_t kDisjoint = std::numeric_limits<std::size_t>::max();
constexpr double kSoft2 = 1e-3;
/// The simd tiers' budget is 100x tighter than the autovectorised tiled
/// kernels' 1e-10 — their hardware-seeded Newton rsqrt converges sub-ulp.
constexpr double kSimdBudget = 1e-12;

struct Soa {
  std::vector<double> x, y, z, m;
  SoaView view() const { return {x.data(), y.data(), z.data(), m.data(),
                                 x.size()}; }
};

Soa make_soa(std::size_t n, std::uint64_t seed) {
  Soa soa;
  soa.x.resize(n);
  soa.y.resize(n);
  soa.z.resize(n);
  soa.m.resize(n);
  if (n == 0) return soa;
  const auto particles = nbody::init_plummer(n, seed);
  for (std::size_t i = 0; i < n; ++i) {
    soa.x[i] = particles[i].pos.x;
    soa.y[i] = particles[i].pos.y;
    soa.z[i] = particles[i].pos.z;
    soa.m[i] = particles[i].mass;
  }
  return soa;
}

struct Acc {
  std::vector<double> x, y, z;
  explicit Acc(std::size_t n) : x(n, 0.0), y(n, 0.0), z(n, 0.0) {}
  bool identical(const Acc& o) const {
    return std::memcmp(x.data(), o.x.data(), x.size() * sizeof(double)) == 0 &&
           std::memcmp(y.data(), o.y.data(), y.size() * sizeof(double)) == 0 &&
           std::memcmp(z.data(), o.z.data(), z.size() * sizeof(double)) == 0;
  }
};

Acc run_simd(SimdTier tier, const Soa& targets, const Soa& sources,
             std::size_t skip_offset) {
  Acc acc(targets.x.size());
  nbody::kernels::simd_accumulate(tier, targets.view(), sources.view(), kSoft2,
                                  skip_offset, acc.x.data(), acc.y.data(),
                                  acc.z.data());
  return acc;
}

Acc run_scalar(const Soa& targets, const Soa& sources,
               std::size_t skip_offset) {
  const std::size_t nt = targets.x.size();
  const std::size_t ns = sources.x.size();
  std::vector<Vec3> tpos(nt);
  std::vector<Vec3> spos(ns);
  for (std::size_t i = 0; i < nt; ++i)
    tpos[i] = {targets.x[i], targets.y[i], targets.z[i]};
  for (std::size_t j = 0; j < ns; ++j)
    spos[j] = {sources.x[j], sources.y[j], sources.z[j]};
  std::vector<Vec3> out(nt, Vec3{});
  nbody::kernels::scalar_accumulate(tpos, spos, sources.m, kSoft2, skip_offset,
                                    out);
  Acc acc(nt);
  for (std::size_t i = 0; i < nt; ++i) {
    acc.x[i] = out[i].x;
    acc.y[i] = out[i].y;
    acc.z[i] = out[i].z;
  }
  return acc;
}

double max_abs_dev(const Acc& a, const Acc& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    worst = std::max(worst, std::fabs(a.x[i] - b.x[i]));
    worst = std::max(worst, std::fabs(a.y[i] - b.y[i]));
    worst = std::max(worst, std::fabs(a.z[i] - b.z[i]));
  }
  return worst;
}

/// Every usable tier on this host (possibly empty — tests then skip).
std::vector<SimdTier> usable_tiers() {
  std::vector<SimdTier> tiers;
  for (const SimdTier t : {SimdTier::Avx2, SimdTier::Avx512})
    if (nbody::kernels::simd_tier_usable(t)) tiers.push_back(t);
  return tiers;
}

#define SKIP_WITHOUT_TIERS(tiers)                                       \
  if ((tiers).empty())                                                  \
    GTEST_SKIP() << "no simd tier compiled in and usable on this host"

TEST(SimdKernels, MatchScalarOnFullSelfInteraction) {
  const auto tiers = usable_tiers();
  SKIP_WITHOUT_TIERS(tiers);
  // Sizes straddle both chunk widths (8 and 16) and their halves.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{7},
        std::size_t{8}, std::size_t{9}, std::size_t{15}, std::size_t{16},
        std::size_t{17}, std::size_t{31}, std::size_t{32}, std::size_t{33},
        std::size_t{200}}) {
    const Soa block = make_soa(n, 42);
    const Acc oracle = run_scalar(block, block, 0);
    for (const SimdTier tier : tiers) {
      const Acc simd = run_simd(tier, block, block, 0);
      EXPECT_LE(max_abs_dev(simd, oracle), kSimdBudget)
          << nbody::kernels::simd_tier_name(tier) << " n=" << n;
    }
  }
}

TEST(SimdKernels, MatchScalarOnDisjointBlocks) {
  const auto tiers = usable_tiers();
  SKIP_WITHOUT_TIERS(tiers);
  const Soa sources = make_soa(57, 8);
  for (const std::size_t nt :
       {std::size_t{1}, std::size_t{8}, std::size_t{16}, std::size_t{33},
        std::size_t{100}}) {
    const Soa targets = make_soa(nt, 7);
    const Acc oracle = run_scalar(targets, sources, kDisjoint);
    for (const SimdTier tier : tiers) {
      const Acc simd = run_simd(tier, targets, sources, kDisjoint);
      EXPECT_LE(max_abs_dev(simd, oracle), kSimdBudget)
          << nbody::kernels::simd_tier_name(tier) << " nt=" << nt;
    }
  }
}

TEST(SimdKernels, MatchScalarAcrossSkipOffsets) {
  const auto tiers = usable_tiers();
  SKIP_WITHOUT_TIERS(tiers);
  // Rank-window shape: targets at offset lo within the sources.  Offsets
  // probe both chunk widths' boundaries and the extremes, with a target
  // count that leaves a tail in every tier.
  const std::size_t n = 96;
  const Soa sources = make_soa(n, 3);
  for (const std::size_t lo :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{15}, std::size_t{16}, std::size_t{17}, std::size_t{63},
        std::size_t{64}, std::size_t{75}}) {
    const std::size_t count = 21;
    ASSERT_LE(lo + count, n);
    Soa targets;
    targets.x.assign(sources.x.begin() + static_cast<std::ptrdiff_t>(lo),
                     sources.x.begin() + static_cast<std::ptrdiff_t>(lo + count));
    targets.y.assign(sources.y.begin() + static_cast<std::ptrdiff_t>(lo),
                     sources.y.begin() + static_cast<std::ptrdiff_t>(lo + count));
    targets.z.assign(sources.z.begin() + static_cast<std::ptrdiff_t>(lo),
                     sources.z.begin() + static_cast<std::ptrdiff_t>(lo + count));
    targets.m.assign(count, 0.0);  // target masses are unused
    const Acc oracle = run_scalar(targets, sources, lo);
    for (const SimdTier tier : tiers) {
      const Acc simd = run_simd(tier, targets, sources, lo);
      EXPECT_LE(max_abs_dev(simd, oracle), kSimdBudget)
          << nbody::kernels::simd_tier_name(tier) << " lo=" << lo;
    }
  }
}

TEST(SimdKernels, MatchScalarWhenSelfWindowFallsPastSources) {
  const auto tiers = usable_tiers();
  SKIP_WITHOUT_TIERS(tiers);
  const Soa targets = make_soa(24, 11);
  const Soa sources = make_soa(32, 12);
  for (const std::size_t lo : {std::size_t{20}, std::size_t{31},
                               std::size_t{32}, std::size_t{100}}) {
    const Acc oracle = run_scalar(targets, sources, lo);
    for (const SimdTier tier : tiers) {
      const Acc simd = run_simd(tier, targets, sources, lo);
      EXPECT_LE(max_abs_dev(simd, oracle), kSimdBudget)
          << nbody::kernels::simd_tier_name(tier) << " lo=" << lo;
    }
  }
}

TEST(SimdKernels, MatchScalarAcrossSourceTileBoundary) {
  const auto tiers = usable_tiers();
  SKIP_WITHOUT_TIERS(tiers);
  // More sources than one L1 tile: the multi-tile path, where per-tile
  // summation grouping is the only tolerated reordering.
  const std::size_t n = kSourceTile + 11;
  const Soa block = make_soa(n, 21);
  const Acc oracle_self = run_scalar(block, block, 0);
  const Soa targets = make_soa(40, 22);
  const Acc oracle_disjoint = run_scalar(targets, block, kDisjoint);
  for (const SimdTier tier : tiers) {
    EXPECT_LE(max_abs_dev(run_simd(tier, block, block, 0), oracle_self),
              kSimdBudget)
        << nbody::kernels::simd_tier_name(tier);
    EXPECT_LE(
        max_abs_dev(run_simd(tier, targets, block, kDisjoint), oracle_disjoint),
        kSimdBudget)
        << nbody::kernels::simd_tier_name(tier);
  }
}

TEST(SimdKernels, BitIdenticalAcrossRepeatedCalls) {
  // The determinism contract's testable core: a fixed tier, fixed input ->
  // byte-identical output, every time.
  const auto tiers = usable_tiers();
  SKIP_WITHOUT_TIERS(tiers);
  for (const std::size_t n : {std::size_t{33}, std::size_t{250}}) {
    const Soa block = make_soa(n, 9);
    for (const SimdTier tier : tiers) {
      const Acc first = run_simd(tier, block, block, 0);
      for (int rep = 0; rep < 5; ++rep) {
        const Acc again = run_simd(tier, block, block, 0);
        EXPECT_TRUE(again.identical(first))
            << nbody::kernels::simd_tier_name(tier) << " n=" << n
            << " rep=" << rep;
      }
    }
  }
}

TEST(SimdKernels, AccumulatesIntoExistingValues) {
  const auto tiers = usable_tiers();
  SKIP_WITHOUT_TIERS(tiers);
  const Soa block = make_soa(19, 5);  // tail lanes in both tiers
  for (const SimdTier tier : tiers) {
    const Acc zero_based = run_simd(tier, block, block, 0);
    Acc seeded(19);
    for (std::size_t i = 0; i < 19; ++i) {
      seeded.x[i] = 1.0;
      seeded.y[i] = 2.0;
      seeded.z[i] = 3.0;
    }
    nbody::kernels::simd_accumulate(tier, block.view(), block.view(), kSoft2,
                                    0, seeded.x.data(), seeded.y.data(),
                                    seeded.z.data());
    for (std::size_t i = 0; i < 19; ++i) {
      EXPECT_DOUBLE_EQ(seeded.x[i], zero_based.x[i] + 1.0) << i;
      EXPECT_DOUBLE_EQ(seeded.y[i], zero_based.y[i] + 2.0) << i;
      EXPECT_DOUBLE_EQ(seeded.z[i], zero_based.z[i] + 3.0) << i;
    }
  }
}

TEST(SimdKernels, UsableImpliesCompiledAndCpuSupport) {
  for (const SimdTier tier : {SimdTier::Avx2, SimdTier::Avx512}) {
    if (nbody::kernels::simd_tier_usable(tier)) {
      EXPECT_TRUE(nbody::kernels::simd_tier_compiled(tier));
    }
  }
  const support::cpu::Features& cpu = support::cpu::features();
  if (nbody::kernels::simd_tier_usable(SimdTier::Avx2)) {
    EXPECT_TRUE(cpu.usable_avx2());
  }
  if (nbody::kernels::simd_tier_usable(SimdTier::Avx512)) {
    EXPECT_TRUE(cpu.usable_avx512());
  }
  // None is always nominally usable (it means "no simd tier").
  EXPECT_TRUE(nbody::kernels::simd_tier_usable(SimdTier::None));
}

TEST(SimdKernels, WidestTierRespectsCpuOverride) {
  // Force a no-SIMD host: the widest tier collapses to None regardless of
  // what the build contains; restoring the real features restores it.
  const SimdTier real = nbody::kernels::widest_simd_tier();
  support::cpu::override_for_testing(support::cpu::Features{});
  EXPECT_EQ(nbody::kernels::widest_simd_tier(), SimdTier::None);
  EXPECT_FALSE(nbody::kernels::simd_tier_usable(SimdTier::Avx2));
  EXPECT_FALSE(nbody::kernels::simd_tier_usable(SimdTier::Avx512));
  support::cpu::override_for_testing(std::nullopt);
  EXPECT_EQ(nbody::kernels::widest_simd_tier(), real);
}

}  // namespace
