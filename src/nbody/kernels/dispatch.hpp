// KernelDispatch: routes every force accumulation to a kernel variant.
//
// Call sites (forces.cpp, NBodyApp, the Fig. 7 baseline) pass Auto and get
// the process default, settable from the command line via --kernel=
// scalar|tiled|tiled-mt|tree (drivers call set_default_force_kernel).  When
// the default itself is Auto, the block sizes alone pick:
//   * scalar for tiny blocks (SoA conversion would dominate),
//   * tree (Barnes-Hut, kernels/bh_tree.hpp) once the source block is large
//     enough that O(N^2) stops being viable — note this tier is
//     *approximate* (bounded by the θ error model; see bh_tree.hpp), the
//     price of reaching N in 10^5..10^6,
//   * tiled-mt for enough target chunks to shard,
//   * tiled otherwise.
// Neither the CPU nor the thread pool's size enters the choice, and tiled-mt
// is bit-identical to tiled at any pool size (a pool without workers runs
// its chunks inline), so the same block sizes give the same bits on every
// host (DESIGN.md §11.1).  Runs that need exact forces at any size pin
// --kernel=tiled (or tiled-mt).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "nbody/types.hpp"

namespace specomp::nbody::kernels {

enum class ForceKernel {
  Auto,
  Scalar,
  Tiled,
  TiledMT,
  Tree,
};

/// Auto-selection boundaries (resolve_force_kernel; exported so tests pin
/// the escalation thresholds exactly).
/// Below this many pair interactions the AoS->SoA staging is not worth it.
inline constexpr std::size_t kScalarPairCutoff = 4096;
/// tiled-mt needs enough target chunks to shard meaningfully: below this
/// the pool handoff costs more than the extra lanes save.
inline constexpr std::size_t kMinTargetsForMT = 32;
/// Auto escalates to Barnes-Hut at this many sources: far above every
/// exact-path test and bench (so pre-existing runs keep bit-identical
/// results), well below the 10^5..10^6 regime where O(N^2) stops being
/// viable.  Any target count qualifies — the tree build is charged once per
/// call and even a thin target slice amortises it at this N.
inline constexpr std::size_t kTreeSourceCutoff = 32768;

/// "auto" | "scalar" | "tiled" | "tiled-mt" | "tree" (nullopt otherwise).
std::optional<ForceKernel> parse_force_kernel(std::string_view name) noexcept;
std::string_view force_kernel_name(ForceKernel kind) noexcept;

/// Every valid --kernel value, "|"-separated, for driver error messages.
std::string_view force_kernel_names() noexcept;

/// Driver-facing parse: unknown names yield nullopt and fill `error` with a
/// message listing the valid tiers (drivers fail fast on it rather than
/// silently falling back).
std::optional<ForceKernel> parse_force_kernel_cli(std::string_view name,
                                                 std::string& error);

/// --bh-theta only influences the Barnes-Hut tier, so drivers reject it
/// when a non-tree kernel is forced.  Auto qualifies: it may escalate to
/// tree at kTreeSourceCutoff.
bool kernel_uses_bh_theta(ForceKernel kind) noexcept;

/// Barnes-Hut opening angle θ used when the Tree kernel runs (CLI
/// --bh-theta; default 0.5).  Process-wide, like the kernel default — the
/// tree kernel's accuracy/speed knob.
void set_bh_opening_angle(double theta) noexcept;
double bh_opening_angle() noexcept;

/// Process-wide default applied when call sites pass Auto (CLI --kernel).
void set_default_force_kernel(ForceKernel kind) noexcept;
ForceKernel default_force_kernel() noexcept;

/// Resolves Auto (via the default, then the size heuristic) to a concrete
/// kernel for a (targets x sources) problem; forced kinds pass through.
ForceKernel resolve_force_kernel(ForceKernel kind, std::size_t targets,
                                 std::size_t sources);

/// Same contract as nbody::accumulate_accelerations, executed by the
/// resolved kernel.  AoS<->SoA staging uses thread-local scratch, so
/// concurrent calls from ThreadCommunicator ranks are safe.
void accumulate(ForceKernel kind, std::span<const Vec3> target_pos,
                std::span<const Vec3> src_pos, std::span<const double> src_mass,
                double softening2, std::size_t skip_offset,
                std::span<Vec3> acc);

}  // namespace specomp::nbody::kernels
