#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace vs::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // The R-7 rank: the two bracketing order statistics and the
  // interpolation fraction between them.
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (rank - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.p50 = percentile_sorted(sorted, 0.50);
  s.p95 = percentile_sorted(sorted, 0.95);
  s.p99 = percentile_sorted(sorted, 0.99);
  s.p999 = percentile_sorted(sorted, 0.999);
  return s;
}

}  // namespace vs::util
