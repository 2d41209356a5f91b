// Periodic in-simulation sampling of registry instruments.
//
// The Sampler schedules itself as an ordinary event at fixed simulated-time
// intervals and, at each tick, records every registered gauge and counter
// whose value changed since the tick before. Ticks only *read* instrument
// cells — they mutate no simulation state and draw no randomness — and
// they are inserted through the same schedule() path as everything else,
// so adding a sampler shifts event sequence numbers uniformly without
// reordering any two simulation events relative to each other: results
// stay bit-identical with sampling on or off (pinned by
// tests/obs_test.cpp).
//
// The tick only re-arms itself while other events remain pending, so a
// sampler never keeps sim.run() from draining: the final row is taken
// at the first tick that finds the queue otherwise idle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "sim/time.h"

namespace vs::sim {
class Simulator;
}  // namespace vs::sim

namespace vs::obs {

/// Records registry instruments as a change log: for each sampled row, its
/// time and only the (column, value) pairs whose bit pattern changed since
/// the row before — exactly what the JSONL series (obs/export.h) holds.
/// Columns are gauges, then counters (as doubles), in registration order.
/// A column registered mid-run is a change on the first row that sees it;
/// comparing bits keeps 0.0 and -0.0 apart.
class Sampler {
 public:
  /// A gauge's column id is its registration index; a counter's is its
  /// registration index with this bit set.
  static constexpr std::uint32_t kCounterColumn = 1u << 31;

  /// Samples `registry` every `interval` of simulated time once started.
  Sampler(MetricsRegistry& registry, sim::SimDuration interval);

  /// Schedules the first tick one interval from sim.now(). Call once, before
  /// sim.run(); the sampler must outlive the simulation.
  void start(sim::Simulator& sim);

  [[nodiscard]] sim::SimDuration interval() const noexcept {
    return interval_;
  }

  /// Rows sampled so far.
  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] sim::SimTime row_time(std::size_t row) const noexcept {
    return rows_[row].time;
  }
  /// Columns that changed at `row`, in column order (gauges first); their
  /// new values are changed_values(row), index for index.
  [[nodiscard]] std::span<const std::uint32_t> changed_columns(
      std::size_t row) const noexcept {
    return {columns_.data() + begin(row), rows_[row].end - begin(row)};
  }
  [[nodiscard]] std::span<const double> changed_values(
      std::size_t row) const noexcept {
    return {values_.data() + begin(row), rows_[row].end - begin(row)};
  }

  /// Takes one row at `now` without scheduling anything. Used by the tick,
  /// and directly by tests.
  void sample_now(sim::SimTime now);

 private:
  struct Row {
    sim::SimTime time;
    std::size_t end;  ///< one past the row's last change
  };
  [[nodiscard]] std::size_t begin(std::size_t row) const noexcept {
    return row == 0 ? 0 : rows_[row - 1].end;
  }
  void tick();

  MetricsRegistry* registry_;
  sim::Simulator* sim_ = nullptr;
  sim::SimDuration interval_;
  std::vector<Row> rows_;
  std::vector<std::uint32_t> columns_;  ///< the change log, parallel
  std::vector<double> values_;          ///< to columns_
  std::vector<const Gauge*> gauges_;  ///< cells of the columns seen so far
  std::vector<const Counter*> counters_;
  std::vector<std::uint64_t> last_gauge_;    ///< bits of each column's
  std::vector<std::uint64_t> last_counter_;  ///< last recorded value
};

}  // namespace vs::obs
