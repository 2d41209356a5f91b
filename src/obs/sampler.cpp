#include "obs/sampler.h"

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

void Sampler::sample_now(sim::SimTime now) {
  Snapshot snap;
  snap.time = now;
  snap.gauge_count = registry_->gauges().size();
  snap.values.reserve(snap.gauge_count + registry_->counters().size());
  for (const auto& row : registry_->gauges()) {
    snap.values.push_back(row.cell.value());
  }
  for (const auto& row : registry_->counters()) {
    snap.values.push_back(static_cast<double>(row.cell.value()));
  }
  snapshots_.push_back(std::move(snap));
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
