#include "serve/resource_manager.h"

#include <cassert>

namespace vs::serve {

namespace {

/// ServeConfig::rebalance cadence: completions between checks, and the
/// load spread (in apps) between the busiest and idlest board that moves
/// work.
constexpr int kRebalancePeriod = 8;
constexpr int kRebalanceSpread = 4;

}  // namespace

ResourceManager::ResourceManager(sim::Simulator& sim,
                                 cluster::Cluster& cluster,
                                 const ServeConfig& config,
                                 obs::MetricsRegistry* metrics)
    : sim_(sim),
      cluster_(cluster),
      config_(config),
      admission_(config),
      tenant_counters_(config.tenants.size()) {
  assert(config.enabled() && "build a ResourceManager only for enabled configs");
  admission_.set_dispatch([this](const ServeArrival& a) { dispatch(a); });
  cluster_.set_on_app_complete(
      [this](const runtime::CompletedApp& c) { on_complete(c); });
  if (metrics != nullptr) {
    for (const Tenant& t : config.tenants) {
      obs::Labels labels{{"tenant", t.name}};
      m_admitted_.emplace_back(
          &metrics->counter("vs_tenant_admitted_total", labels));
      m_rejected_.emplace_back(
          &metrics->counter("vs_tenant_rejected_total", labels));
      m_deferred_.emplace_back(
          &metrics->counter("vs_tenant_deferred_total", labels));
      m_completed_.emplace_back(
          &metrics->counter("vs_tenant_completed_total", labels));
      m_slo_miss_.emplace_back(
          &metrics->counter("vs_tenant_slo_miss_total", labels));
    }
    for (const SloClass& c : config.classes) {
      m_response_.emplace_back(&metrics->histogram(
          "vs_tenant_response_ms", obs::default_ms_bounds(),
          obs::Labels{{"class", c.name}}));
    }
  } else {
    m_admitted_.resize(config.tenants.size());
    m_rejected_.resize(config.tenants.size());
    m_deferred_.resize(config.tenants.size());
    m_completed_.resize(config.tenants.size());
    m_slo_miss_.resize(config.tenants.size());
    m_response_.resize(config.classes.size());
  }
}

void ResourceManager::start(int suite_size) {
  std::vector<ServeArrival> trace = generate_trace(config_, suite_size);
  arrivals_ = static_cast<std::int64_t>(trace.size());
  for (const ServeArrival& a : trace) {
    sim_.schedule_at(a.app.arrival, [this, a] { on_arrival(a); });
  }
}

void ResourceManager::on_arrival(const ServeArrival& a) {
  auto i = static_cast<std::size_t>(a.tenant);
  switch (admission_.on_arrival(a)) {
    case AdmissionController::Action::kAdmit:
      break;  // dispatch() already counted the admission
    case AdmissionController::Action::kDefer:
      m_deferred_[i].add();
      break;
    case AdmissionController::Action::kReject:
      m_rejected_[i].add();
      break;
  }
}

void ResourceManager::dispatch(const ServeArrival& a) {
  // Counted here, not in on_arrival: deferred arrivals admitted later by
  // the admission pump dispatch through this same path, and the counter
  // must agree with AdmissionController's per-tenant `admitted` stat.
  m_admitted_[static_cast<std::size_t>(a.tenant)].add();
  // Butler-style routing: the cluster's least-loaded pick with an affinity
  // bonus for boards already running the same spec (its placement-specific
  // bitstreams are warm). Loads are integers, so a warm board never beats a
  // less loaded one; the bonus only breaks ties at the minimum load, and
  // pool order breaks the rest.
  cluster_.dispatch_arrival(a.app, a.app.spec_index);
}

void ResourceManager::on_complete(const runtime::CompletedApp& c) {
  // The closed benches (tenant == -1) share the cluster; only serve-plane
  // jobs touch admission capacity or the tenant accounts.
  if (c.tenant < 0) return;
  auto i = static_cast<std::size_t>(c.tenant);
  ++completions_;
  TenantCounters& tc = tenant_counters_[i];
  ++tc.completed;
  const double response_ms = c.response_ms();
  tc.response_ms.push_back(response_ms);
  m_completed_[i].add();
  const auto cls =
      static_cast<std::size_t>(config_.tenants[i].slo_class);
  m_response_[cls].observe(response_ms);
  if (response_ms > sim::to_ms(config_.classes[cls].latency_target)) {
    ++tc.slo_miss;
    m_slo_miss_[i].add();
  }
  // Releasing the slot may admit deferred work, which dispatches inside
  // this completion event.
  admission_.on_complete(c.tenant);
  if (config_.rebalance &&
      ++completions_since_rebalance_ >= kRebalancePeriod) {
    completions_since_rebalance_ = 0;
    cluster_.rebalance_active(kRebalanceSpread);
  }
}

}  // namespace vs::serve
