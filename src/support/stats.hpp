// Online moments (mean/variance/min/max) used by the measurement layer.
// Quantiles live in obs::DistSketch.
#pragma once

#include <cstddef>

namespace specomp::support {

/// Numerically stable running mean/variance/min/max (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x) noexcept;
  void merge(const OnlineStats& other) noexcept;
  void reset() noexcept { *this = OnlineStats{}; }

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace specomp::support
