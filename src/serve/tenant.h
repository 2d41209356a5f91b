// Multi-tenant serving plane: tenants, SLO classes, and the serve-level
// configuration surface.
//
// A ServeConfig describes who is submitting open-loop traffic — tenants
// with a fair-share weight, an outstanding-work quota, and an arrival
// process — and what they were promised: SLO classes with a latency target
// and an admission priority. Like faults::FaultScenario, all randomness
// derives from one master seed through one rule: `config.stream(label)`
// forks a named PCG32 stream, so arrival schedules are a pure function of
// the seed — bit-identical across platforms, sweep parallelism, and kernel
// worker counts. A default-constructed config has no tenants and is
// disabled: no resource manager is built and every code path stays
// byte-identical to a serve-free run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vs::serve {

/// One tenant's arrival process (Poisson / MMPP-bursty / diurnal); see
/// workload/generator.h for the knobs and the generation contract.
using ArrivalProcess = workload::ArrivalProcess;

/// A service class: what response time was promised and how urgently the
/// admission controller drains its queues (lower priority value = drained
/// first when deferred work competes for freed capacity).
struct SloClass {
  std::string name;
  sim::SimDuration latency_target = sim::ms(2000.0);
  int priority = 0;
};

struct Tenant {
  std::string name;
  int slo_class = 0;    ///< index into ServeConfig::classes
  double weight = 1.0;  ///< fair share in the weighted-deficit scheduler
  /// Max outstanding admitted jobs for this tenant; arrivals beyond it are
  /// deferred (queued) rather than admitted. Default: effectively unbounded.
  int quota = 1 << 30;
  /// Max deferred-queue depth; arrivals beyond it are rejected outright.
  int defer_limit = 1 << 30;
  ArrivalProcess arrivals;
  // Per-job batch draw (the same [5, 30] span the closed benches use).
  int min_batch = 5;
  int max_batch = 30;
};

/// The one struct holding every serving-plane knob.
struct ServeConfig {
  std::uint64_t seed = 2025;
  std::vector<SloClass> classes;
  std::vector<Tenant> tenants;
  /// Open-loop trace horizon: arrivals are generated in [0, horizon).
  sim::SimDuration horizon = sim::seconds(30.0);
  /// Cluster-wide admitted-jobs cap — the capacity the weighted-deficit
  /// scheduler shares out under saturation. Default: effectively unbounded
  /// (admission limited only by per-tenant quotas).
  int max_inflight = 1 << 30;
  /// Load rebalancing: every few completions, if the spread between the
  /// most- and least-loaded active boards is wide enough, unstarted apps
  /// live-migrate over the Aurora link (cadence and spread are constants
  /// in resource_manager.cpp).
  bool rebalance = false;

  /// The serving plane is enabled iff someone is submitting.
  [[nodiscard]] bool enabled() const noexcept { return !tenants.empty(); }

  /// Named sub-stream derivation — the same fork rule as
  /// faults::FaultScenario::stream, and the only path from the master seed
  /// to any serve-plane randomness.
  [[nodiscard]] util::Rng stream(std::string_view label) const noexcept {
    return util::Rng(seed).fork(label);
  }
};

}  // namespace vs::serve
