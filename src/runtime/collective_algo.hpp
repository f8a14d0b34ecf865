// Collective-algorithm selection (flat linear vs logarithmic tree).
//
// The paper's PVM collectives were flat: a root receives p-1 blocks one
// after another (linear in p, like the shared-ethernet testbed itself).
// Switched clusters changed the shape of t_comm(p) from linear to
// logarithmic, and the collectives in runtime/collectives.hpp implement both
// generations behind this selector:
//
//   * Flat — the paper-era linear fan-in/fan-out (and the zero-cost
//     world-level barrier on the backends).  Default behaviour of every
//     pre-existing bench and test.
//   * Tree — binomial-tree broadcast/gather, recursive-doubling allreduce,
//     and a dissemination barrier built from real point-to-point messages;
//     O(log p) rounds, correct at any p.
//   * Auto — resolves by a size heuristic: Tree when
//     p > kCollectiveAutoTreeCutoff.
//
// Selection depends only on configuration and p — never on data or timing —
// so it is deterministic for a given configuration (the same discipline as
// nbody/kernels/dispatch.hpp).
#pragma once

#include <optional>
#include <string_view>

namespace specomp::runtime {

enum class CollectiveAlgo { Flat, Tree, Auto };

/// Auto picks Tree strictly above this many ranks (flat fan-in is fine —
/// often cheaper — while the root can drain its peers in a handful of
/// receives).
inline constexpr int kCollectiveAutoTreeCutoff = 8;

/// "flat" | "tree" | "auto" (nullopt otherwise).
std::optional<CollectiveAlgo> parse_collective_algo(
    std::string_view name) noexcept;
std::string_view collective_algo_name(CollectiveAlgo algo) noexcept;

/// Resolves Auto (by the size heuristic) to a concrete algorithm for a
/// p-rank communicator.
CollectiveAlgo resolve_collective_algo(CollectiveAlgo algo, int p) noexcept;

}  // namespace specomp::runtime
