#include "metrics/experiment.h"

#include <stdexcept>

#include "baselines/baseline_exclusive.h"
#include "baselines/dml.h"
#include "baselines/fcfs.h"
#include "baselines/nimblock.h"
#include "baselines/round_robin.h"
#include "fpga/board.h"
#include "obs/trace_hub.h"
#include "sim/simulator.h"

namespace vs::metrics {

const char* system_name(SystemKind kind) noexcept {
  switch (kind) {
    case SystemKind::kBaseline: return "Baseline";
    case SystemKind::kFcfs: return "FCFS";
    case SystemKind::kRoundRobin: return "RR";
    case SystemKind::kNimblock: return "Nimblock";
    case SystemKind::kVersaOnlyLittle: return "VersaSlot-OL";
    case SystemKind::kVersaBigLittle: return "VersaSlot-BL";
    case SystemKind::kDml: return "DML";
  }
  return "?";
}

fpga::FabricConfig fabric_for(SystemKind kind) {
  return kind == SystemKind::kVersaBigLittle
             ? fpga::FabricConfig::big_little()
             : fpga::FabricConfig::only_little();
}

std::unique_ptr<runtime::SchedulerPolicy> make_policy(
    SystemKind kind, const core::VersaSlotOptions& vs_options) {
  switch (kind) {
    case SystemKind::kBaseline:
      return std::make_unique<baselines::BaselineExclusivePolicy>();
    case SystemKind::kFcfs:
      return std::make_unique<baselines::FcfsPolicy>();
    case SystemKind::kRoundRobin:
      return std::make_unique<baselines::RoundRobinPolicy>();
    case SystemKind::kNimblock:
      return std::make_unique<baselines::NimblockPolicy>();
    case SystemKind::kVersaOnlyLittle: {
      core::VersaSlotOptions o = vs_options;
      o.mode = core::VersaSlotOptions::Mode::kOnlyLittle;
      return std::make_unique<core::VersaSlotPolicy>(o);
    }
    case SystemKind::kVersaBigLittle: {
      core::VersaSlotOptions o = vs_options;
      o.mode = core::VersaSlotOptions::Mode::kBigLittle;
      return std::make_unique<core::VersaSlotPolicy>(o);
    }
    case SystemKind::kDml:
      return std::make_unique<baselines::DmlPolicy>();
  }
  throw std::invalid_argument("unknown SystemKind");
}

RunResult run_single_board(SystemKind kind,
                           const std::vector<apps::AppSpec>& suite,
                           const workload::Sequence& sequence,
                           const RunOptions& options) {
  sim::Simulator sim;
  fpga::Board board(sim, "fpga0", options.fabric.value_or(fabric_for(kind)),
                    options.board_params);
  std::unique_ptr<runtime::SchedulerPolicy> policy =
      make_policy(kind, options.vs_options);
  RunResult result;
  runtime::BoardRuntime rt(board, *policy);
  // The runtime collects its completions straight into the result.
  rt.bind_completion_log(result.apps);
  if (options.phase_accounting) rt.enable_phase_accounting();
  if (options.hub != nullptr) {
    rt.bind_observability(options.hub->channel(board.name()));
  }
  if (options.telemetry != nullptr) {
    rt.bind_metrics(options.telemetry->registry());
    options.telemetry->info().experiment = "single_board";
    options.telemetry->info().config = {
        {"system", system_name(kind)},
        {"board", board.name()},
        {"apps", std::to_string(sequence.size())},
    };
    options.telemetry->start_sampling(sim);
  }

  for (const apps::AppArrival& a : sequence) {
    sim.schedule_at(a.arrival, [&rt, &suite, a] {
      rt.submit(suite.at(static_cast<std::size_t>(a.spec_index)),
                a.spec_index, a.batch, a.arrival, a.item_interval);
    });
  }
  sim.run(options.time_limit);

  result.system = system_name(kind);
  result.submitted = static_cast<int>(sequence.size());
  for (const runtime::CompletedApp& c : result.apps) {
    result.response_ms.push_back(c.response_ms());
    result.makespan = std::max(result.makespan, c.completed);
  }
  result.completed = static_cast<int>(result.apps.size());
  result.response = util::summarize(result.response_ms);
  result.counters = rt.counters();
  result.utilization = rt.utilization();
  return result;
}

AggregateResult reduce_aggregate(SystemKind kind,
                                 const std::vector<RunResult>& per_sequence) {
  AggregateResult agg;
  agg.system = system_name(kind);
  for (const RunResult& r : per_sequence) {
    agg.all_responses_ms.insert(agg.all_responses_ms.end(),
                                r.response_ms.begin(), r.response_ms.end());
  }
  util::Summary s = util::summarize(agg.all_responses_ms);
  agg.mean_response_ms = s.mean;
  agg.p95_ms = s.p95;
  agg.p99_ms = s.p99;
  return agg;
}

AggregateResult aggregate(SystemKind kind,
                          const std::vector<apps::AppSpec>& suite,
                          const std::vector<workload::Sequence>& sequences,
                          const RunOptions& options) {
  std::vector<RunResult> per_sequence;
  per_sequence.reserve(sequences.size());
  for (const workload::Sequence& seq : sequences) {
    per_sequence.push_back(run_single_board(kind, suite, seq, options));
  }
  return reduce_aggregate(kind, per_sequence);
}

ClusterRunResult run_cluster(const std::vector<apps::AppSpec>& suite,
                             const workload::Sequence& sequence,
                             const cluster::ClusterOptions& options,
                             sim::SimTime time_limit,
                             obs::Telemetry* telemetry) {
  cluster::ClusterOptions cluster_options = options;
  if (telemetry != nullptr) {
    cluster_options.metrics = &telemetry->registry();
    telemetry->info().experiment = "cluster";
    telemetry->info().config = {
        {"apps", std::to_string(sequence.size())},
        {"t1", std::to_string(options.t1)},
        {"t2", std::to_string(options.t2)},
        {"boards_per_config", std::to_string(options.boards_per_config)},
    };
  }
  sim::Simulator sim;
  cluster::Cluster cluster(sim, suite, cluster_options);
  if (telemetry != nullptr) telemetry->start_sampling(sim);
  cluster.submit_sequence(sequence);
  sim.run(time_limit);

  ClusterRunResult result;
  result.submitted = cluster.submitted();
  result.completed = static_cast<int>(cluster.completed().size());
  result.apps = cluster.completed();
  for (const runtime::CompletedApp& c : result.apps) {
    result.response_ms.push_back(c.response_ms());
  }
  result.response = util::summarize(result.response_ms);
  result.dswitch_trace = cluster.dswitch().trace();
  result.switches = cluster.switches();
  result.recovery = cluster.recovery_stats();
  result.checkpoint = cluster.checkpoint_stats();
  if (cluster.fault_plane() != nullptr) {
    result.availability = cluster.fault_plane()->mean_availability(sim.now());
  }
  result.events = sim.events_executed();
  return result;
}

}  // namespace vs::metrics
