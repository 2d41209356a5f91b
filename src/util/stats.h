// Streaming and batch summary statistics used by the metrics layer.
#pragma once

#include <cstddef>
#include <vector>

namespace vs::util {

/// Welford's online algorithm: numerically stable running mean/variance.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< population variance
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile of an already ascending-sorted sample, with linear
/// interpolation (the R-7 method, numpy's default). `q` is clamped to
/// [0, 1]; an empty sample gives 0. summarize() is the common packaged
/// case.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double q);

/// Convenience summary over a sample: mean, p50, p95, p99, p99.9, min, max.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

[[nodiscard]] Summary summarize(const std::vector<double>& values);

}  // namespace vs::util
