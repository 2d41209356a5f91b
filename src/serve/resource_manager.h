// Butler-style cluster resource manager for the serving plane.
//
// The ResourceManager sits between the open-loop arrival trace and the
// Cluster: it schedules every tenant arrival as a simulation event,
// passes it through the fair-share AdmissionController, and routes
// admitted jobs across the active board pool by load and app affinity
// (a board already running the same spec has its placement-specific
// bitstreams warm — among the least-loaded boards, prefer it, like
// Butler's locality-aware dispatch). Completions flow back through the
// cluster-level hook: they release admission capacity, record per-tenant
// and per-SLO-class response times, and — when ServeConfig::rebalance is
// on — periodically trigger live-migration rebalancing over the Aurora
// link.
//
// Determinism: the trace is a pure function of (config, seed), and every
// admission and routing decision runs inside a simulation event (arrivals
// via Simulator::schedule_at, completions inside the cluster's completion
// hook), so results are a pure function of the inputs. Telemetry
// (`vs_tenant_*`) registers only when a registry is passed AND the plane
// is enabled, so serve-free exports stay byte-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/arrival.h"
#include "serve/tenant.h"
#include "sim/simulator.h"

namespace vs::serve {

class ResourceManager {
 public:
  /// Per-tenant serving counters, available without telemetry.
  struct TenantCounters {
    std::int64_t completed = 0;
    std::int64_t slo_miss = 0;
    std::vector<double> response_ms;  ///< per-completion, arrival order
  };

  /// `metrics` may be null (no instruments). The cluster, config, and
  /// registry must outlive the manager. The manager claims the cluster's
  /// completion hook (Cluster::set_on_app_complete).
  ResourceManager(sim::Simulator& sim, cluster::Cluster& cluster,
                  const ServeConfig& config,
                  obs::MetricsRegistry* metrics = nullptr);

  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  /// Generates the arrival trace and schedules every arrival. Call once,
  /// before running the simulator. `suite_size` bounds the per-arrival
  /// spec draw (the cluster's suite size).
  void start(int suite_size);

  [[nodiscard]] const AdmissionController& admission() const noexcept {
    return admission_;
  }
  [[nodiscard]] const std::vector<TenantCounters>& tenant_counters()
      const noexcept {
    return tenant_counters_;
  }
  /// Arrivals scheduled by start().
  [[nodiscard]] std::int64_t arrivals() const noexcept { return arrivals_; }
  /// Completions attributed to a tenant (== admitted once drained, minus
  /// anything the recovery layer lost or shed).
  [[nodiscard]] std::int64_t completions() const noexcept {
    return completions_;
  }

 private:
  void on_arrival(const ServeArrival& a);
  /// Routing: least loaded among active boards, with an affinity bonus for
  /// boards already running the same spec (score = 2*load - affinity; see
  /// Cluster::least_loaded_or_null).
  void dispatch(const ServeArrival& a);
  void on_complete(const runtime::CompletedApp& c);

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  const ServeConfig& config_;
  AdmissionController admission_;
  std::vector<TenantCounters> tenant_counters_;
  std::int64_t arrivals_ = 0;
  std::int64_t completions_ = 0;
  int completions_since_rebalance_ = 0;

  // vs_tenant_* instruments: one row per tenant (label tenant=<name>) and
  // one response histogram per SLO class (label class=<name>). Registered
  // only when a registry is bound — the plane itself is only constructed
  // when config.enabled(), so serve-free exports never see these series.
  std::vector<obs::CounterHandle> m_admitted_;   ///< vs_tenant_admitted_total
  std::vector<obs::CounterHandle> m_rejected_;   ///< vs_tenant_rejected_total
  std::vector<obs::CounterHandle> m_deferred_;   ///< vs_tenant_deferred_total
  std::vector<obs::CounterHandle> m_completed_;  ///< vs_tenant_completed_total
  std::vector<obs::CounterHandle> m_slo_miss_;   ///< vs_tenant_slo_miss_total
  std::vector<obs::HistogramHandle> m_response_;  ///< vs_tenant_response_ms
};

}  // namespace vs::serve
