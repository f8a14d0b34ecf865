#include "runtime/collective_algo.hpp"

namespace specomp::runtime {

std::optional<CollectiveAlgo> parse_collective_algo(
    std::string_view name) noexcept {
  if (name == "flat") return CollectiveAlgo::Flat;
  if (name == "tree") return CollectiveAlgo::Tree;
  if (name == "auto") return CollectiveAlgo::Auto;
  return std::nullopt;
}

std::string_view collective_algo_name(CollectiveAlgo algo) noexcept {
  switch (algo) {
    case CollectiveAlgo::Flat: return "flat";
    case CollectiveAlgo::Tree: return "tree";
    case CollectiveAlgo::Auto: return "auto";
  }
  return "auto";
}

CollectiveAlgo resolve_collective_algo(CollectiveAlgo algo, int p) noexcept {
  if (algo == CollectiveAlgo::Auto)
    return p > kCollectiveAutoTreeCutoff ? CollectiveAlgo::Tree
                                         : CollectiveAlgo::Flat;
  return algo;
}

}  // namespace specomp::runtime
