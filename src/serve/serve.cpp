#include "serve/serve.h"

#include <cassert>

#include "obs/trace_hub.h"

namespace vs::serve {

namespace {

ServeResult collect_serve_result(const cluster::Cluster& cluster,
                                 const ResourceManager& manager,
                                 const ServeConfig& config,
                                 std::uint64_t events) {
  ServeResult result;
  result.arrivals = manager.arrivals();
  result.completed = manager.completions();
  result.recovery = cluster.recovery_stats();
  result.events = events;

  const auto& admission = manager.admission().tenants();
  const auto& counters = manager.tenant_counters();
  std::vector<std::vector<double>> class_responses(config.classes.size());
  std::vector<double> all_responses;
  for (std::size_t i = 0; i < config.tenants.size(); ++i) {
    TenantResult t;
    t.name = config.tenants[i].name;
    t.slo_class = config.tenants[i].slo_class;
    t.submitted = admission[i].submitted;
    t.admitted = admission[i].admitted;
    t.deferred = admission[i].deferred;
    t.rejected = admission[i].rejected;
    t.completed = counters[i].completed;
    t.slo_miss = counters[i].slo_miss;
    result.admitted += t.admitted;
    result.rejected += t.rejected;
    auto cls = static_cast<std::size_t>(t.slo_class);
    class_responses[cls].insert(class_responses[cls].end(),
                                counters[i].response_ms.begin(),
                                counters[i].response_ms.end());
    all_responses.insert(all_responses.end(), counters[i].response_ms.begin(),
                         counters[i].response_ms.end());
    result.tenants.push_back(std::move(t));
  }
  const double horizon_s = sim::to_seconds(config.horizon);
  for (std::size_t c = 0; c < config.classes.size(); ++c) {
    ClassResult r;
    r.name = config.classes[c].name;
    for (const TenantResult& t : result.tenants) {
      if (static_cast<std::size_t>(t.slo_class) != c) continue;
      r.completed += t.completed;
      r.slo_miss += t.slo_miss;
    }
    if (r.completed > 0) {
      r.attainment = static_cast<double>(r.completed - r.slo_miss) /
                     static_cast<double>(r.completed);
    }
    if (horizon_s > 0) {
      r.goodput_per_s =
          static_cast<double>(r.completed - r.slo_miss) / horizon_s;
    }
    r.response_ms = util::summarize(class_responses[c]);
    result.classes.push_back(std::move(r));
  }
  result.response_ms = util::summarize(all_responses);
  return result;
}

}  // namespace

ServeResult run_serve(const std::vector<apps::AppSpec>& suite,
                      const ServeConfig& config,
                      const cluster::ClusterOptions& options,
                      sim::SimTime time_limit, obs::Telemetry* telemetry) {
  assert(config.enabled() && "run_serve needs at least one tenant");
  cluster::ClusterOptions cluster_options = options;
  if (telemetry != nullptr) {
    cluster_options.metrics = &telemetry->registry();
    telemetry->info().experiment = "serve";
    telemetry->info().config = {
        {"tenants", std::to_string(config.tenants.size())},
        {"horizon_s", std::to_string(sim::to_seconds(config.horizon))},
        {"boards_per_config",
         std::to_string(options.boards_per_config)},
    };
  }
  sim::Simulator sim;
  cluster::Cluster cluster(sim, suite, cluster_options);
  ResourceManager manager(sim, cluster, config, cluster_options.metrics);
  if (telemetry != nullptr) telemetry->start_sampling(sim);
  manager.start(static_cast<int>(suite.size()));
  sim.run(time_limit);
  return collect_serve_result(cluster, manager, config,
                              sim.events_executed());
}

}  // namespace vs::serve
