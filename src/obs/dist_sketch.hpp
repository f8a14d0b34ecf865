// Streaming quantile sketch (extended P² algorithm).
//
// The adaptive-control reproduction (ROADMAP: Anselmi & Walton's speculative
// queueing networks) needs per-link delivery-delay and per-rank service-time
// *distributions*, not just the run's flat counters — an online controller
// sets θ from observed tails.  It is the one quantile type in the tree
// (support::OnlineStats keeps moments only).  Recording every sample would make
// trace memory scale with virtual events; instead each stream feeds a
// DistSketch: the piecewise-parabolic (P²) estimator of Jain & Chlamtac,
// extended to track several quantiles at once (Raatikainen's variant).
//
// Properties the hot path relies on:
//   * fixed size — 2m+3 markers in std::array storage, no heap, ever;
//   * O(m) per observe(), allocation-free (specomp-analyze's
//     hot-path-callable scope covers this header);
//   * exact while count ≤ marker count, asymptotically consistent after.
//
// Estimates are deterministic functions of the sample sequence, so sketch
// output is byte-stable across reruns like every other artifact.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/json.hpp"

namespace specomp::obs {

class DistSketch {
 public:
  static constexpr std::size_t kNumQuantiles = 3;
  /// Tracked tail points; to_json() reports them as p50/p90/p99.
  static constexpr std::array<double, kNumQuantiles> kQuantiles{0.5, 0.9,
                                                                0.99};
  static constexpr std::size_t kMarkers = 2 * kNumQuantiles + 3;

  /// Folds one sample in: O(kMarkers), no allocation.
  void observe(double x) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  /// Estimated q-quantile: exact order statistic (with interpolation) while
  /// count() ≤ kMarkers, P² marker interpolation after.  0 when empty.
  double quantile(double q) const noexcept;

  /// {"count","mean","min","max","p50","p90","p99"} — the report shape
  /// documented in README's Observability section.
  Json to_json() const;

 private:
  /// Cumulative probability assigned to marker `i` (0, q1/2, q1, ..., 1).
  static double marker_prob(std::size_t i) noexcept;
  double parabolic(std::size_t i, double s) const noexcept;

  std::array<double, kMarkers> height_{};   // marker heights (sample values)
  std::array<double, kMarkers> pos_{};      // actual marker positions n_i
  std::array<double, kMarkers> desired_{};  // desired positions n'_i
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A labelled sketch, e.g. "link_delay.0->2" or "service.rank1"; the report
/// writer serialises SimResult::dists rows straight from these.
struct NamedDist {
  std::string name;
  DistSketch sketch;
};

}  // namespace specomp::obs
