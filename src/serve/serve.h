// Serving-plane run harness: the serve-side analogue of
// metrics::run_cluster. Builds a Cluster plus a ResourceManager, plays the
// open-loop tenant trace, and collects per-tenant / per-SLO-class results
// (SLO attainment, goodput, response tails) the ext_multitenant bench
// reports. Results are bit-identical with telemetry on or off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/task.h"
#include "cluster/cluster.h"
#include "obs/telemetry.h"
#include "serve/resource_manager.h"
#include "serve/tenant.h"
#include "util/stats.h"

namespace vs::serve {

/// Per-tenant outcome of a serve run.
struct TenantResult {
  std::string name;
  int slo_class = 0;
  std::int64_t submitted = 0;  ///< arrivals generated for this tenant
  std::int64_t admitted = 0;
  std::int64_t deferred = 0;   ///< entered the admission queue
  std::int64_t rejected = 0;
  std::int64_t completed = 0;
  std::int64_t slo_miss = 0;
};

/// Per-SLO-class outcome, pooled over the class's tenants.
struct ClassResult {
  std::string name;
  std::int64_t completed = 0;
  std::int64_t slo_miss = 0;
  /// Fraction of completions inside the latency target (1.0 when nothing
  /// completed — an empty class misses nothing).
  double attainment = 1.0;
  /// SLO-attained completions per simulated second of trace horizon.
  double goodput_per_s = 0.0;
  util::Summary response_ms;  ///< p50/p95/p99/p99.9 over completions
};

struct ServeResult {
  std::vector<TenantResult> tenants;
  std::vector<ClassResult> classes;
  std::int64_t arrivals = 0;   ///< open-loop trace size
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t completed = 0;  ///< tenant-attributed completions
  util::Summary response_ms;   ///< pooled over every completion
  cluster::RecoveryStats recovery;
  std::uint64_t events = 0;    ///< simulator events executed
};

/// Runs the serving plane to completion (or `time_limit`). `config` must
/// be enabled (have tenants); `telemetry`, when non-null, registers the
/// vs_tenant_* instruments and samples the run.
[[nodiscard]] ServeResult run_serve(
    const std::vector<apps::AppSpec>& suite, const ServeConfig& config,
    const cluster::ClusterOptions& options,
    sim::SimTime time_limit = sim::seconds(36000.0),
    obs::Telemetry* telemetry = nullptr);

}  // namespace vs::serve
