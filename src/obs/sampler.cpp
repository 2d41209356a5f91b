#include "obs/sampler.h"

#include <bit>
#include <cassert>

#include "sim/simulator.h"

namespace vs::obs {

Sampler::Sampler(MetricsRegistry& registry, sim::SimDuration interval)
    : registry_(&registry), interval_(interval) {
  assert(interval > 0 && "sampling interval must be positive");
}

void Sampler::start(sim::Simulator& sim) {
  sim_ = &sim;
  sim.schedule(interval_, [this] { tick(); });
}

namespace {

/// Appends the cells registered since the last row to `cells` and their
/// (not yet meaningful) last bits to `last`; returns how many columns the
/// log already knew.
template <typename Rows, typename Cell>
std::size_t adopt_new_columns(const Rows& rows, std::vector<const Cell*>& cells,
                              std::vector<std::uint64_t>& last) {
  const std::size_t known = cells.size();
  for (std::size_t i = known; i < rows.size(); ++i) {
    cells.push_back(&rows[i].cell);
    last.push_back(0);
  }
  return known;
}

}  // namespace

void Sampler::sample_now(sim::SimTime now) {
  // A column is logged when its bits changed, or on the first row that
  // sees it.
  const std::size_t known_gauges =
      adopt_new_columns(registry_->gauges(), gauges_, last_gauge_);
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    const double v = gauges_[i]->value();
    const auto bits = std::bit_cast<std::uint64_t>(v);
    if (i < known_gauges && bits == last_gauge_[i]) continue;
    last_gauge_[i] = bits;
    columns_.push_back(static_cast<std::uint32_t>(i));
    values_.push_back(v);
  }
  const std::size_t known_counters =
      adopt_new_columns(registry_->counters(), counters_, last_counter_);
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    const auto v = static_cast<double>(counters_[i]->value());
    const auto bits = std::bit_cast<std::uint64_t>(v);
    if (i < known_counters && bits == last_counter_[i]) continue;
    last_counter_[i] = bits;
    columns_.push_back(kCounterColumn | static_cast<std::uint32_t>(i));
    values_.push_back(v);
  }
  rows_.push_back(Row{now, columns_.size()});
}

void Sampler::tick() {
  sample_now(sim_->now());
  // Re-arm only while the simulation still has work: the queue is examined
  // after this event was popped, so an idle queue here means the run is
  // over.
  if (!sim_->idle()) {
    sim_->schedule(interval_, [this] { tick(); });
  }
}

}  // namespace vs::obs
