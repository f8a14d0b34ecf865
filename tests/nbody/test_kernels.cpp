// Equivalence and determinism properties of the force-kernel subsystem:
// the tiled kernels must match the scalar oracle within 1e-10 max-abs for
// every skip_offset shape, and tiled-mt must be bit-identical to tiled on
// every shape at every pool size (disjoint chunk-aligned shards, fixed
// sweep order).  Auto's tier is a function of block sizes alone.
#include "nbody/kernels/dispatch.hpp"
#include "nbody/kernels/kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nbody/forces.hpp"
#include "nbody/init.hpp"
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

/// SoA image of a block, the layout the tiled kernels take.
struct Soa {
  std::vector<double> x, y, z, m;
  explicit Soa(const Block& block) : m(block.mass) {
    for (const Vec3& p : block.pos) {
      x.push_back(p.x);
      y.push_back(p.y);
      z.push_back(p.z);
    }
  }
  nbody::kernels::SoaView view() const {
    return {x.data(), y.data(), z.data(), m.data(), x.size()};
  }
};

/// SoA accumulators seeded with a pattern, so every comparison also covers
/// the add-into contract.
struct Acc {
  std::vector<double> x, y, z;
  explicit Acc(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      x.push_back(0.5 * static_cast<double>(i));
      y.push_back(-1.0);
      z.push_back(2.0);
    }
  }
  bool identical(const Acc& o) const {
    // memcmp may not take the null data() of an empty vector, even for 0
    // bytes, so the n = 0 shape compares sizes only.
    const auto same = [](const std::vector<double>& a,
                         const std::vector<double>& b) {
      return a.size() == b.size() &&
             (a.empty() ||
              std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
    };
    return same(x, o.x) && same(y, o.y) && same(z, o.z);
  }
};

/// tiled-mt on private pools of 0, 1 and 3 workers, each memcmp-equal to
/// tiled: shards never change a target's summation order.
void expect_mt_bit_identical(const Soa& targets, const Soa& sources,
                             std::size_t skip_offset, const std::string& what) {
  Acc tiled(targets.x.size());
  nbody::kernels::tiled_accumulate(targets.view(), sources.view(), kSoft2,
                                   skip_offset, tiled.x.data(), tiled.y.data(),
                                   tiled.z.data());
  for (const unsigned workers : {0u, 1u, 3u}) {
    support::ThreadPool pool(workers);
    Acc mt(targets.x.size());
    nbody::kernels::tiled_mt_accumulate(targets.view(), sources.view(), kSoft2,
                                        skip_offset, mt.x.data(), mt.y.data(),
                                        mt.z.data(), &pool);
    EXPECT_TRUE(mt.identical(tiled)) << what << " workers=" << workers;
  }
}

void expect_all_match(const Block& targets, const Block& sources,
                      std::size_t skip_offset, const std::string& what) {
  const auto oracle = run(ForceKernel::Scalar, targets, sources, skip_offset);
  const auto tiled = run(ForceKernel::Tiled, targets, sources, skip_offset);
  EXPECT_LE(max_abs_dev(tiled, oracle), kBudget) << what;
  expect_mt_bit_identical(Soa(targets), Soa(sources), skip_offset, what);
}

TEST(ForceKernels, MatchScalarOnFullSelfInteraction) {
  // skip_offset = 0: the all_accelerations shape, self window sweeps the
  // whole diagonal.  Sizes straddle the chunk width (8) and beyond.
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{7},
        std::size_t{8}, std::size_t{9}, std::size_t{31}, std::size_t{32},
        std::size_t{33}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{200}}) {
    const Block block = make_block(n, 42);
    expect_all_match(block, block, 0,
                     "self-interaction n=" + std::to_string(n));
  }
}

TEST(ForceKernels, MatchScalarOnDisjointBlocks) {
  // SIZE_MAX: targets and sources are unrelated ranges; no pair is skipped.
  for (const std::size_t nt : {std::size_t{1}, std::size_t{8}, std::size_t{33},
                               std::size_t{100}}) {
    const Block targets = make_block(nt, 7);
    const Block sources = make_block(57, 8);
    expect_all_match(targets, sources, kDisjoint,
                     "disjoint nt=" + std::to_string(nt));
  }
}

TEST(ForceKernels, MatchScalarAcrossSkipOffsets) {
  // Rank-block shape: targets are a window of the sources at offset `lo`.
  // Offsets probe chunk boundaries (multiples of 8 and neighbours) plus the
  // extremes of the source range; 21 targets leave a chunk tail.
  const std::size_t n = 104;
  const Block sources = make_block(n, 3);
  for (const std::size_t count : {std::size_t{16}, std::size_t{21}}) {
    for (const std::size_t lo :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
          std::size_t{9}, std::size_t{15}, std::size_t{16}, std::size_t{17},
          std::size_t{63}, std::size_t{64}, std::size_t{80}}) {
      ASSERT_LE(lo + count, n);
      Block targets;
      targets.pos.assign(
          sources.pos.begin() + static_cast<std::ptrdiff_t>(lo),
          sources.pos.begin() + static_cast<std::ptrdiff_t>(lo + count));
      targets.mass.assign(count, 0.0);  // target masses are unused
      expect_all_match(targets, sources, lo,
                       "window lo=" + std::to_string(lo) +
                           " count=" + std::to_string(count));
    }
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
    expect_all_match(targets, sources, lo,
                     "self window past sources lo=" + std::to_string(lo));
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
  const Soa block(make_block(500, 9));
  for (int rep = 0; rep < 5; ++rep)
    expect_mt_bit_identical(block, block, 0, "rep=" + std::to_string(rep));
}

TEST(KernelDispatch, ParseRoundTripsEveryName) {
  using nbody::kernels::force_kernel_name;
  using nbody::kernels::parse_force_kernel;
  const ForceKernel kinds[] = {ForceKernel::Auto, ForceKernel::Scalar,
                               ForceKernel::Tiled, ForceKernel::TiledMT,
                               ForceKernel::Tree};
  std::string names;
  for (const ForceKernel kind : kinds) {
    const auto parsed = parse_force_kernel(force_kernel_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
    if (!names.empty()) names += '|';
    names += force_kernel_name(kind);
  }
  // The CLI's tier list is exactly these five, in enum order.
  EXPECT_EQ(names, nbody::kernels::force_kernel_names());
  EXPECT_FALSE(parse_force_kernel("").has_value());
  EXPECT_FALSE(parse_force_kernel("simd").has_value());
  EXPECT_FALSE(parse_force_kernel("avx2").has_value());
  EXPECT_FALSE(parse_force_kernel("TILED").has_value());
}

TEST(KernelDispatch, CliParseFailsFastWithValidTierList) {
  using nbody::kernels::parse_force_kernel_cli;
  std::string error;
  const auto ok = parse_force_kernel_cli("tiled-mt", error);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, ForceKernel::TiledMT);
  EXPECT_TRUE(error.empty());

  for (const char* bad : {"warp", "simd-avx2", "simd-avx512"}) {
    error.clear();
    EXPECT_FALSE(parse_force_kernel_cli(bad, error).has_value()) << bad;
    EXPECT_NE(error.find(bad), std::string::npos) << error;
    // The message names every valid tier so a typo is self-correcting.
    EXPECT_NE(error.find("auto|scalar|tiled|tiled-mt|tree"), std::string::npos)
        << error;
  }
}

TEST(KernelDispatch, BhThetaOnlyMeaningfulForTreeCapableKernels) {
  using nbody::kernels::kernel_uses_bh_theta;
  EXPECT_TRUE(kernel_uses_bh_theta(ForceKernel::Tree));
  EXPECT_TRUE(kernel_uses_bh_theta(ForceKernel::Auto));  // may escalate
  for (const ForceKernel kind :
       {ForceKernel::Scalar, ForceKernel::Tiled, ForceKernel::TiledMT}) {
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
  // Auto's tier as a function of (targets, sources) alone: the same table
  // holds on every host, whatever its ISA or pool size.  Rows probe each
  // threshold at +-1.
  using nbody::kernels::kMinTargetsForMT;
  using nbody::kernels::kScalarPairCutoff;
  using nbody::kernels::kTreeSourceCutoff;
  static_assert(63 * 65 < kScalarPairCutoff && kScalarPairCutoff <= 64 * 64);
  struct Row {
    std::size_t targets;
    std::size_t sources;
    ForceKernel tier;
  };
  const Row rows[] = {
      {0, 1000, ForceKernel::Scalar},
      {63, 65, ForceKernel::Scalar},  // 4095 pairs
      {64, 64, ForceKernel::TiledMT},
      {1, kScalarPairCutoff, ForceKernel::Tiled},
      {kMinTargetsForMT - 1, 1000, ForceKernel::Tiled},
      {kMinTargetsForMT, 1000, ForceKernel::TiledMT},
      {kMinTargetsForMT - 1, kTreeSourceCutoff - 1, ForceKernel::Tiled},
      {8192, kTreeSourceCutoff - 1, ForceKernel::TiledMT},
      {8192, kTreeSourceCutoff, ForceKernel::Tree},
      {1, kTreeSourceCutoff, ForceKernel::Tree},
  };
  for (const Row& row : rows)
    EXPECT_EQ(nbody::kernels::resolve_force_kernel(ForceKernel::Auto,
                                                   row.targets, row.sources),
              row.tier)
        << row.targets << " targets x " << row.sources << " sources";
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
