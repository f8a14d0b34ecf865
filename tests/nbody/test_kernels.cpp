// Equivalence and determinism properties of the force-kernel subsystem:
// the tiled kernels must match the scalar oracle within 1e-10 max-abs for
// every skip_offset shape, and tiled-mt must be bit-identical to tiled
// regardless of pool size (disjoint chunk-aligned shards, fixed sweep
// order).
#include "nbody/kernels/dispatch.hpp"
#include "nbody/kernels/kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "nbody/forces.hpp"
#include "nbody/init.hpp"
#include "nbody/kernels/simd.hpp"
#include "support/cpu_features.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace specomp;
using nbody::Vec3;
using nbody::kernels::ForceKernel;
using nbody::kernels::kSourceTile;
using nbody::kernels::kTargetChunk;

constexpr std::size_t kDisjoint = std::numeric_limits<std::size_t>::max();
constexpr double kSoft2 = 1e-3;
constexpr double kBudget = 1e-10;

struct Block {
  std::vector<Vec3> pos;
  std::vector<double> mass;
};

Block make_block(std::size_t n, std::uint64_t seed) {
  Block block;
  if (n == 0) return block;  // init_plummer requires n > 0
  block.pos.resize(n);
  block.mass.resize(n);
  const auto particles = nbody::init_plummer(n, seed);
  for (std::size_t i = 0; i < n; ++i) {
    block.pos[i] = particles[i].pos;
    block.mass[i] = particles[i].mass;
  }
  return block;
}

std::vector<Vec3> run(ForceKernel kind, const Block& targets,
                      const Block& sources, std::size_t skip_offset) {
  // Seed acc with a recognisable pattern: accumulate ADDS, so the baseline
  // must survive in the output of every kernel.
  std::vector<Vec3> acc(targets.pos.size());
  for (std::size_t i = 0; i < acc.size(); ++i)
    acc[i] = {0.5 * static_cast<double>(i), -1.0, 2.0};
  nbody::kernels::accumulate(kind, targets.pos, sources.pos, sources.mass,
                             kSoft2, skip_offset, acc);
  return acc;
}

double max_abs_dev(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i].x - b[i].x));
    worst = std::max(worst, std::fabs(a[i].y - b[i].y));
    worst = std::max(worst, std::fabs(a[i].z - b[i].z));
  }
  return worst;
}

void expect_all_match(const Block& targets, const Block& sources,
                      std::size_t skip_offset, const char* what) {
  const auto oracle = run(ForceKernel::Scalar, targets, sources, skip_offset);
  const auto tiled = run(ForceKernel::Tiled, targets, sources, skip_offset);
  const auto mt = run(ForceKernel::TiledMT, targets, sources, skip_offset);
  EXPECT_LE(max_abs_dev(tiled, oracle), kBudget) << what;
  EXPECT_LE(max_abs_dev(mt, oracle), kBudget) << what;
  // tiled-mt shards never change summation order, so vs tiled it is exact.
  EXPECT_EQ(max_abs_dev(mt, tiled), 0.0) << what;
}

TEST(ForceKernels, MatchScalarOnFullSelfInteraction) {
  // skip_offset = 0: the all_accelerations shape, self window sweeps the
  // whole diagonal.  Sizes straddle the chunk width (8) and beyond.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{7}, std::size_t{8}, std::size_t{9},
                              std::size_t{63}, std::size_t{64}, std::size_t{65},
                              std::size_t{200}}) {
    const Block block = make_block(n, 42);
    expect_all_match(block, block, 0, "n self-interaction");
  }
}

TEST(ForceKernels, MatchScalarOnDisjointBlocks) {
  // SIZE_MAX: targets and sources are unrelated ranges; no pair is skipped.
  for (const std::size_t nt : {std::size_t{1}, std::size_t{8}, std::size_t{33},
                               std::size_t{100}}) {
    const Block targets = make_block(nt, 7);
    const Block sources = make_block(57, 8);
    expect_all_match(targets, sources, kDisjoint, "disjoint blocks");
  }
}

TEST(ForceKernels, MatchScalarAcrossSkipOffsets) {
  // Rank-block shape: targets are a window of the sources at offset `lo`.
  // Offsets probe chunk boundaries (multiples of 8 and neighbours) plus the
  // extremes of the source range.
  const std::size_t n = 96;
  const Block sources = make_block(n, 3);
  for (const std::size_t lo :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{16}, std::size_t{63}, std::size_t{64},
        std::size_t{80}}) {
    const std::size_t count = 16;
    ASSERT_LE(lo + count, n);
    Block targets;
    targets.pos.assign(sources.pos.begin() + static_cast<std::ptrdiff_t>(lo),
                       sources.pos.begin() +
                           static_cast<std::ptrdiff_t>(lo + count));
    targets.mass.assign(count, 0.0);  // target masses are unused
    expect_all_match(targets, sources, lo, "skip offset window");
  }
}

TEST(ForceKernels, MatchScalarWhenSelfWindowFallsPastSources) {
  // skip_offset so large that skip + i >= n_src for some/all targets: the
  // scalar loop simply never hits j == self, and tiled must clamp its edge
  // strip the same way.
  const Block targets = make_block(24, 11);
  const Block sources = make_block(32, 12);
  for (const std::size_t lo : {std::size_t{20}, std::size_t{31},
                               std::size_t{32}, std::size_t{100}}) {
    expect_all_match(targets, sources, lo, "self window past sources");
  }
}

TEST(ForceKernels, MatchScalarAcrossSourceTileBoundary) {
  // More sources than one L1 tile (kSourceTile) forces the multi-tile path,
  // where the only tolerated deviation is per-tile summation grouping.
  const std::size_t n = kSourceTile + 6;
  const Block block = make_block(n, 21);
  expect_all_match(block, block, 0, "source tile boundary");
  const Block targets = make_block(40, 22);
  expect_all_match(targets, block, kDisjoint, "tile boundary, disjoint");
}

TEST(ForceKernels, AccumulateAddsToExistingValues) {
  const Block block = make_block(32, 5);
  std::vector<Vec3> zero_based(32, Vec3{});
  nbody::kernels::accumulate(ForceKernel::Tiled, block.pos, block.pos,
                             block.mass, kSoft2, 0, zero_based);
  std::vector<Vec3> seeded(32, Vec3{1.0, 2.0, 3.0});
  nbody::kernels::accumulate(ForceKernel::Tiled, block.pos, block.pos,
                             block.mass, kSoft2, 0, seeded);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(seeded[i].x, zero_based[i].x + 1.0);
    EXPECT_DOUBLE_EQ(seeded[i].y, zero_based[i].y + 2.0);
    EXPECT_DOUBLE_EQ(seeded[i].z, zero_based[i].z + 3.0);
  }
}

TEST(ForceKernels, TiledMtIsDeterministicAcrossRunsAndPoolSizes) {
  // Same input, repeated runs, different pool sizes: byte-identical output.
  const std::size_t n = 500;
  const Block block = make_block(n, 9);
  std::vector<double> sx(n), sy(n), sz(n);
  for (std::size_t i = 0; i < n; ++i) {
    sx[i] = block.pos[i].x;
    sy[i] = block.pos[i].y;
    sz[i] = block.pos[i].z;
  }
  const nbody::kernels::SoaView view{sx.data(), sy.data(), sz.data(),
                                     block.mass.data(), n};

  std::vector<double> ref_x(n, 0.0), ref_y(n, 0.0), ref_z(n, 0.0);
  nbody::kernels::tiled_accumulate(view, view, kSoft2, 0, ref_x.data(),
                                   ref_y.data(), ref_z.data());

  for (const unsigned workers : {0u, 1u, 3u}) {
    support::ThreadPool pool(workers);
    for (int rep = 0; rep < 5; ++rep) {
      std::vector<double> ax(n, 0.0), ay(n, 0.0), az(n, 0.0);
      nbody::kernels::tiled_mt_accumulate(view, view, kSoft2, 0, ax.data(),
                                          ay.data(), az.data(), &pool);
      EXPECT_EQ(std::memcmp(ax.data(), ref_x.data(), n * sizeof(double)), 0)
          << "workers=" << workers << " rep=" << rep;
      EXPECT_EQ(std::memcmp(ay.data(), ref_y.data(), n * sizeof(double)), 0)
          << "workers=" << workers << " rep=" << rep;
      EXPECT_EQ(std::memcmp(az.data(), ref_z.data(), n * sizeof(double)), 0)
          << "workers=" << workers << " rep=" << rep;
    }
  }
}

TEST(KernelDispatch, ParseRoundTripsEveryName) {
  using nbody::kernels::force_kernel_name;
  using nbody::kernels::parse_force_kernel;
  for (const ForceKernel kind :
       {ForceKernel::Auto, ForceKernel::Scalar, ForceKernel::Tiled,
        ForceKernel::TiledMT, ForceKernel::SimdAvx2, ForceKernel::SimdAvx512,
        ForceKernel::Tree}) {
    const auto parsed = parse_force_kernel(force_kernel_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_force_kernel("").has_value());
  EXPECT_FALSE(parse_force_kernel("simd").has_value());
  EXPECT_FALSE(parse_force_kernel("avx2").has_value());
  EXPECT_FALSE(parse_force_kernel("TILED").has_value());
}

TEST(KernelDispatch, CliParseFailsFastWithValidTierList) {
  using nbody::kernels::parse_force_kernel_cli;
  std::string error;
  const auto ok = parse_force_kernel_cli("simd-avx2", error);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, ForceKernel::SimdAvx2);
  EXPECT_TRUE(error.empty());

  EXPECT_FALSE(parse_force_kernel_cli("warp", error).has_value());
  EXPECT_NE(error.find("warp"), std::string::npos);
  // The message names every valid tier so a typo is self-correcting.
  EXPECT_NE(error.find(nbody::kernels::force_kernel_names()),
            std::string::npos);
}

TEST(KernelDispatch, BhThetaOnlyMeaningfulForTreeCapableKernels) {
  using nbody::kernels::kernel_uses_bh_theta;
  EXPECT_TRUE(kernel_uses_bh_theta(ForceKernel::Tree));
  EXPECT_TRUE(kernel_uses_bh_theta(ForceKernel::Auto));  // may escalate
  for (const ForceKernel kind :
       {ForceKernel::Scalar, ForceKernel::Tiled, ForceKernel::TiledMT,
        ForceKernel::SimdAvx2, ForceKernel::SimdAvx512}) {
    EXPECT_FALSE(kernel_uses_bh_theta(kind))
        << nbody::kernels::force_kernel_name(kind);
  }
}

TEST(KernelDispatch, AutoStaysOnScalarForTinyBlocks) {
  // Below the pair cutoff the SoA staging would dominate, and small unit
  // tests keep their exact oracle results.
  using nbody::kernels::resolve_force_kernel;
  EXPECT_EQ(resolve_force_kernel(ForceKernel::Auto, 8, 8), ForceKernel::Scalar);
  EXPECT_NE(resolve_force_kernel(ForceKernel::Auto, 1000, 1000),
            ForceKernel::Scalar);
  // Explicit kinds pass through untouched.
  EXPECT_EQ(resolve_force_kernel(ForceKernel::Tiled, 8, 8), ForceKernel::Tiled);
  EXPECT_EQ(resolve_force_kernel(ForceKernel::TiledMT, 8, 8),
            ForceKernel::TiledMT);
}

TEST(KernelDispatch, ProcessDefaultOverridesAuto) {
  using nbody::kernels::default_force_kernel;
  using nbody::kernels::resolve_force_kernel;
  using nbody::kernels::set_default_force_kernel;
  const ForceKernel saved = default_force_kernel();
  set_default_force_kernel(ForceKernel::Tiled);
  EXPECT_EQ(resolve_force_kernel(ForceKernel::Auto, 8, 8), ForceKernel::Tiled);
  set_default_force_kernel(saved);
}

TEST(KernelDispatch, AutoBoundariesArePinnedExactly) {
  // The escalation thresholds, probed at +-1 through the worker-explicit
  // overload (the shared pool has host-dependent size).  No simd tier
  // forced off here — Auto picks the widest usable one, so the expected
  // single-thread tier is computed from the live cpu features.
  using nbody::kernels::kMinTargetsForMT;
  using nbody::kernels::kScalarPairCutoff;
  using nbody::kernels::kTreeSourceCutoff;
  using nbody::kernels::resolve_force_kernel;
  using nbody::kernels::SimdTier;

  const ForceKernel single_thread_tier =
      nbody::kernels::widest_simd_tier() == SimdTier::Avx512
          ? ForceKernel::SimdAvx512
      : nbody::kernels::widest_simd_tier() == SimdTier::Avx2
          ? ForceKernel::SimdAvx2
          : ForceKernel::Tiled;

  // Pair cutoff: 63*65 = 4095 < 4096 <= 64*64.
  static_assert(63 * 65 < kScalarPairCutoff && kScalarPairCutoff <= 64 * 64);
  EXPECT_EQ(resolve_force_kernel(ForceKernel::Auto, 63, 65, 0),
            ForceKernel::Scalar);
  EXPECT_EQ(resolve_force_kernel(ForceKernel::Auto, 64, 64, 0),
            single_thread_tier);

  // Tree cutoff on the source count, any target count.
  EXPECT_EQ(resolve_force_kernel(ForceKernel::Auto, 8192,
                                 kTreeSourceCutoff - 1, 0),
            single_thread_tier);
  EXPECT_EQ(resolve_force_kernel(ForceKernel::Auto, 8192, kTreeSourceCutoff, 0),
            ForceKernel::Tree);
  EXPECT_EQ(resolve_force_kernel(ForceKernel::Auto, 1, kTreeSourceCutoff, 0),
            ForceKernel::Tree);

  // MT needs both enough targets and a populated pool.
  EXPECT_EQ(resolve_force_kernel(ForceKernel::Auto, kMinTargetsForMT, 1000, 2),
            ForceKernel::TiledMT);
  EXPECT_EQ(resolve_force_kernel(ForceKernel::Auto, kMinTargetsForMT - 1, 1000,
                                 2),
            single_thread_tier);
  EXPECT_EQ(resolve_force_kernel(ForceKernel::Auto, kMinTargetsForMT, 1000, 0),
            single_thread_tier);
}

TEST(KernelDispatch, AutoNeverSelectsAnUnusableTier) {
  // Clamp the cpu to generations below each tier and confirm Auto's
  // single-thread choice degrades in lockstep, never resolving to a tier
  // the host cannot execute.
  using nbody::kernels::resolve_force_kernel;
  using support::cpu::Features;

  const auto single_thread = [] {
    return resolve_force_kernel(ForceKernel::Auto, 64, 1000, 0);
  };

  support::cpu::override_for_testing(Features{});  // no SIMD at all
  EXPECT_EQ(single_thread(), ForceKernel::Tiled);

  Features avx2_only;
  avx2_only.sse2 = avx2_only.avx = avx2_only.avx2 = avx2_only.fma = true;
  avx2_only.os_avx = true;
  support::cpu::override_for_testing(avx2_only);
  if (nbody::kernels::simd_tier_compiled(nbody::kernels::SimdTier::Avx2))
    EXPECT_EQ(single_thread(), ForceKernel::SimdAvx2);
  else
    EXPECT_EQ(single_thread(), ForceKernel::Tiled);

  support::cpu::override_for_testing(std::nullopt);
}

TEST(KernelDispatch, ForcedUnusableSimdTierFallsBackCleanly) {
  // --kernel=simd-avx512 on an AVX2-only host runs simd-avx2; on a host
  // with neither, both forced tiers run tiled.  Dispatch must degrade, not
  // fault.
  using nbody::kernels::resolve_force_kernel;
  using support::cpu::Features;

  Features avx2_only;
  avx2_only.sse2 = avx2_only.avx = avx2_only.avx2 = avx2_only.fma = true;
  avx2_only.os_avx = true;
  support::cpu::override_for_testing(avx2_only);
  const bool avx2_compiled =
      nbody::kernels::simd_tier_compiled(nbody::kernels::SimdTier::Avx2);
  EXPECT_EQ(resolve_force_kernel(ForceKernel::SimdAvx512, 100, 100, 0),
            avx2_compiled ? ForceKernel::SimdAvx2 : ForceKernel::Tiled);

  support::cpu::override_for_testing(Features{});
  EXPECT_EQ(resolve_force_kernel(ForceKernel::SimdAvx512, 100, 100, 0),
            ForceKernel::Tiled);
  EXPECT_EQ(resolve_force_kernel(ForceKernel::SimdAvx2, 100, 100, 0),
            ForceKernel::Tiled);

  // And the public accumulate entry point stays correct under the clamp
  // (it silently runs the fallback tier).
  const Block block = make_block(64, 33);
  const auto forced = run(ForceKernel::SimdAvx512, block, block, 0);
  const auto oracle = run(ForceKernel::Scalar, block, block, 0);
  EXPECT_LE(max_abs_dev(forced, oracle), kBudget);

  support::cpu::override_for_testing(std::nullopt);
}

TEST(KernelDispatch, AutoMatchesOracleThroughPublicEntryPoint) {
  // accumulate_accelerations (Auto) vs forced scalar on a size large enough
  // to take the tiled path: the dispatch layer must stay inside the budget.
  const Block block = make_block(300, 17);
  std::vector<Vec3> via_auto(300, Vec3{});
  nbody::accumulate_accelerations(block.pos, block.pos, block.mass, kSoft2, 0,
                                  via_auto);
  std::vector<Vec3> via_scalar(300, Vec3{});
  nbody::kernels::accumulate(ForceKernel::Scalar, block.pos, block.pos,
                             block.mass, kSoft2, 0, via_scalar);
  EXPECT_LE(max_abs_dev(via_auto, via_scalar), kBudget);
}

}  // namespace
