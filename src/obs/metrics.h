// Simulation-wide telemetry instruments.
//
// A MetricsRegistry owns typed Counter / Gauge / Histogram cells identified
// by a stable name plus label pairs (Prometheus conventions: counters end in
// `_total`, names are snake_case, labels carry dimensions such as the board
// or core). Registration may allocate; *updates never do* — an update is an
// integer add, a double store, or a bucket increment on a pre-resolved cell.
//
// Instrumented components hold null-by-default handles (CounterHandle,
// GaugeHandle, HistogramHandle) rather than cells: with no registry bound a
// hot-path update is a single predictable-not-taken branch, which keeps the
// event kernel's zero-allocation contract and its event rate intact
// (BM_MetricsOverhead in bench/micro_substrate.cpp pins both). Binding a
// registry (`bind_metrics` on each component) resolves the handles once.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace vs::obs {

/// Label dimensions attached to an instrument, e.g. {{"board", "fpga0"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing integer (events, bytes, nanoseconds).
class Counter {
 public:
  void add(std::int64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::int64_t value() const noexcept { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Point-in-time value (queue depth, D_switch level). The Sampler records
/// gauge time series at simulated-time intervals.
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double d) noexcept { value_ += d; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: ascending upper bounds chosen at registration
/// plus an implicit +Inf overflow bucket. observe() is O(log buckets) with
/// no allocation. Quantiles are estimated Prometheus-style by linear
/// interpolation inside the containing bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;
  /// Adds `other`'s observations, as if each had been observed here too.
  /// The bounds must be equal.
  void merge(const Histogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double max() const noexcept { return max_; }
  /// Upper bounds, ascending; the overflow bucket is not listed.
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts()
      const noexcept {
    return counts_;
  }
  /// Estimated q-quantile (q in [0,1]); 0 for an empty histogram. Values in
  /// the overflow bucket resolve to the observed maximum.
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  double sum_ = 0.0;
  double max_ = 0.0;
  std::uint64_t count_ = 0;
};

/// Latency buckets in milliseconds spanning 10 us .. 30 s, roughly
/// logarithmic — wide enough for PCAP waits and whole-app response times.
[[nodiscard]] std::vector<double> default_ms_bounds();

/// Latency buckets in milliseconds spanning 1 us .. 1 s, roughly
/// logarithmic — for sub-millisecond events such as pre-copy stop-and-copy
/// downtime, which default_ms_bounds() lumps into its bottom bucket.
[[nodiscard]] std::vector<double> default_sub_ms_bounds();

/// Count buckets spanning 1 .. 1000, roughly logarithmic — for discrete
/// volumes such as items restored from a checkpoint or queue depths.
[[nodiscard]] std::vector<double> default_count_bounds();

// ---------------------------------------------------------------- handles
// Null-by-default views instrumented components store. Updates through a
// default-constructed handle are no-ops costing one branch; no allocation
// either way.

class CounterHandle {
 public:
  CounterHandle() = default;
  explicit CounterHandle(Counter* cell) : cell_(cell) {}
  void add(std::int64_t n = 1) const noexcept {
    if (cell_) cell_->add(n);
  }
  [[nodiscard]] explicit operator bool() const noexcept {
    return cell_ != nullptr;
  }

 private:
  Counter* cell_ = nullptr;
};

class GaugeHandle {
 public:
  GaugeHandle() = default;
  explicit GaugeHandle(Gauge* cell) : cell_(cell) {}
  void set(double v) const noexcept {
    if (cell_) cell_->set(v);
  }
  void add(double d) const noexcept {
    if (cell_) cell_->add(d);
  }
  [[nodiscard]] explicit operator bool() const noexcept {
    return cell_ != nullptr;
  }

 private:
  Gauge* cell_ = nullptr;
};

class HistogramHandle {
 public:
  HistogramHandle() = default;
  explicit HistogramHandle(Histogram* cell) : cell_(cell) {}
  void observe(double v) const noexcept {
    if (cell_) cell_->observe(v);
  }
  [[nodiscard]] explicit operator bool() const noexcept {
    return cell_ != nullptr;
  }

 private:
  Histogram* cell_ = nullptr;
};

// --------------------------------------------------------------- registry

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the cell for (name, labels), creating it on first request —
  /// re-binding the same instrument (cluster epochs reusing a board) gets
  /// the same cell, so counts accumulate across bindings. Cell addresses
  /// are stable for the registry's lifetime.
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  /// `bounds` apply on first registration only.
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       Labels labels = {});

  template <typename Cell>
  struct Row {
    std::string name;
    Labels labels;
    Cell cell;
    Row(std::string n, Labels l, Cell c)
        : name(std::move(n)), labels(std::move(l)), cell(std::move(c)) {}
  };

  /// Rows in registration order (exporters and the Sampler iterate these).
  [[nodiscard]] const std::deque<Row<Counter>>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::deque<Row<Gauge>>& gauges() const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::deque<Row<Histogram>>& histograms()
      const noexcept {
    return histograms_;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Canonical identity, e.g. `vs_pcap_loads_total{board="fpga0"}`; bare
  /// name when there are no labels. Used as the series key everywhere
  /// (index, JSONL, dashboard).
  [[nodiscard]] static std::string full_name(const std::string& name,
                                             const Labels& labels);

 private:
  std::deque<Row<Counter>> counters_;
  std::deque<Row<Gauge>> gauges_;
  std::deque<Row<Histogram>> histograms_;
  std::map<std::string, Counter*> counter_index_;
  std::map<std::string, Gauge*> gauge_index_;
  std::map<std::string, Histogram*> histogram_index_;
};

}  // namespace vs::obs
