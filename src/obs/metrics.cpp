#include "obs/metrics.h"

#include <algorithm>
#include <cassert>

namespace vs::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()) &&
         "histogram bounds must be ascending");
}

void Histogram::observe(double v) noexcept {
  // First bucket whose upper bound admits v; the end() position is the
  // overflow bucket.
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  sum_ += v;
  if (count_ == 0 || v > max_) max_ = v;
  ++count_;
}

void Histogram::merge(const Histogram& other) noexcept {
  assert(other.bounds_ == bounds_ && "merged histograms need equal bounds");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  sum_ += other.sum_;
  if (other.count_ > 0 && (count_ == 0 || other.max_ > max_)) {
    max_ = other.max_;
  }
  count_ += other.count_;
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_));
  if (rank >= count_) rank = count_ - 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (rank < cumulative) {
      if (i >= bounds_.size()) return max_;  // overflow bucket
      double lo = i == 0 ? 0.0 : bounds_[i - 1];
      double hi = bounds_[i];
      // Position of the rank inside this bucket, interpolated linearly.
      std::uint64_t into = rank - (cumulative - counts_[i]);
      double frac = counts_[i] > 1 ? static_cast<double>(into) /
                                         static_cast<double>(counts_[i] - 1)
                                   : 1.0;
      return lo + (hi - lo) * frac;
    }
  }
  return max_;
}

std::vector<double> default_ms_bounds() {
  return {0.01, 0.03, 0.1, 0.3, 1.0,    3.0,    10.0,
          30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0, 30000.0};
}

std::vector<double> default_sub_ms_bounds() {
  return {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,
          0.2,   0.5,   1.0,   2.0,  5.0,  10.0, 100.0, 1000.0};
}

std::vector<double> default_count_bounds() {
  return {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0};
}

std::string MetricsRegistry::full_name(const std::string& name,
                                       const Labels& labels) {
  if (labels.empty()) return name;
  std::string out = name;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += v;
    out += '"';
  }
  out += '}';
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name, Labels labels) {
  std::string key = full_name(name, labels);
  auto it = counter_index_.find(key);
  if (it != counter_index_.end()) return *it->second;
  counters_.emplace_back(name, std::move(labels), Counter{});
  Counter* cell = &counters_.back().cell;
  counter_index_.emplace(std::move(key), cell);
  return *cell;
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels) {
  std::string key = full_name(name, labels);
  auto it = gauge_index_.find(key);
  if (it != gauge_index_.end()) return *it->second;
  gauges_.emplace_back(name, std::move(labels), Gauge{});
  Gauge* cell = &gauges_.back().cell;
  gauge_index_.emplace(std::move(key), cell);
  return *cell;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      Labels labels) {
  std::string key = full_name(name, labels);
  auto it = histogram_index_.find(key);
  if (it != histogram_index_.end()) return *it->second;
  histograms_.emplace_back(name, std::move(labels),
                           Histogram{std::move(bounds)});
  Histogram* cell = &histograms_.back().cell;
  histogram_index_.emplace(std::move(key), cell);
  return *cell;
}

}  // namespace vs::obs
