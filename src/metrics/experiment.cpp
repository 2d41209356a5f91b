#include "metrics/experiment.h"

#include <deque>
#include <stdexcept>

#include "baselines/baseline_exclusive.h"
#include "baselines/dml.h"
#include "faults/fault_plane.h"
#include "baselines/fcfs.h"
#include "baselines/nimblock.h"
#include "baselines/round_robin.h"
#include "fpga/board.h"
#include "obs/trace_hub.h"
#include "sim/simulator.h"
#include "sim/trace_export.h"

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

  // One scheduling epoch per board-up interval, like the cluster: a crash
  // freezes the live runtime, and the reboot starts a fresh one on the
  // scrubbed board. Fault-free runs have exactly one epoch, so every code
  // path below matches the pre-epoch harness event for event.
  struct EpochState {
    std::unique_ptr<runtime::SchedulerPolicy> policy;
    std::unique_ptr<runtime::BoardRuntime> runtime;
  };
  std::vector<EpochState> epochs;
  RunResult result;
  result.system = system_name(kind);
  result.submitted = static_cast<int>(sequence.size());
  std::vector<sim::Span> spans;

  // Folds a finished (crashed or drained) epoch into the run totals.
  // Epochs retire in order and a frozen epoch completes nothing further,
  // so concatenating their completion lists preserves completion order.
  auto retire = [&](runtime::BoardRuntime& rt) {
    for (const runtime::CompletedApp& c : rt.completed()) {
      result.apps.push_back(c);
      result.response_ms.push_back(c.response_ms());
      result.makespan = std::max(result.makespan, c.completed);
    }
    const runtime::RuntimeCounters& rc = rt.counters();
    result.counters.pr_requests += rc.pr_requests;
    result.counters.pr_blocked += rc.pr_blocked;
    result.counters.launch_blocked += rc.launch_blocked;
    result.counters.items_executed += rc.items_executed;
    result.counters.apps_completed += rc.apps_completed;
    result.counters.preemptions += rc.preemptions;
    result.counters.passes += rc.passes;
    result.counters.ckpt_snapshots += rc.ckpt_snapshots;
    result.counters.ckpt_bytes += rc.ckpt_bytes;
    result.checkpoint += rt.checkpoint_stats();
    const runtime::UtilizationIntegral& u = rt.utilization();
    result.utilization.lut_used += u.lut_used;
    result.utilization.ff_used += u.ff_used;
    result.utilization.lut_capacity += u.lut_capacity;
    result.utilization.ff_capacity += u.ff_capacity;
    result.utilization.lut_fabric += u.lut_fabric;
    result.utilization.ff_fabric += u.ff_fabric;
    spans.insert(spans.end(), rt.trace().spans().begin(),
                 rt.trace().spans().end());
  };

  auto new_epoch = [&]() -> runtime::BoardRuntime& {
    EpochState e;
    e.policy = make_policy(kind, options.vs_options);
    e.runtime = std::make_unique<runtime::BoardRuntime>(board, *e.policy);
    e.runtime->trace().enable(options.record_trace);
    e.runtime->enable_checkpoints(options.checkpoint);
    if (options.phase_accounting) e.runtime->enable_phase_accounting();
    if (options.telemetry != nullptr) {
      // Idempotent registration: every epoch resolves the same cells
      // (same board name), so counters accumulate over the whole run.
      e.runtime->bind_metrics(options.telemetry->registry());
    }
    if (options.hub != nullptr) {
      options.hub->attach_spans(board.name(), &e.runtime->trace());
      if (options.hub->trace_enabled()) e.runtime->trace().enable();
      e.runtime->bind_observability(&options.hub->channel(board.name()));
    }
    epochs.push_back(std::move(e));
    return *epochs.back().runtime;
  };
  new_epoch();

  // Fault plane: the whole scenario applies to this board as plane board 0
  // (PCAP CRC through stream "pcap/0", exactly as the direct model did).
  // Displaced apps and arrivals during downtime are held and re-admitted
  // when the reboot brings the (single) board back.
  std::unique_ptr<faults::FaultPlane> plane;
  std::deque<runtime::BoardRuntime::MigratedApp> held;
  sim::SimTime last_crash_time = 0;
  std::uint64_t crash_flow = 0;
  if (options.faults.enabled()) {
    plane = std::make_unique<faults::FaultPlane>(sim, options.faults);
    if (options.telemetry != nullptr) {
      plane->bind_metrics(options.telemetry->registry());
    }
    plane->add_board(board);
    plane->set_handler([&](const faults::HealthEvent& e) {
      runtime::BoardRuntime& rt = *epochs.back().runtime;
      switch (e.kind) {
        case faults::FaultKind::kBoardCrash: {
          ++result.recovery.boards_crashed;
          last_crash_time = e.time;
          runtime::BoardRuntime::CrashReport report = rt.crash();
          retire(rt);
          result.recovery.apps_evacuated +=
              static_cast<int>(report.evacuable.size());
          result.recovery.apps_checkpoint_restored +=
              static_cast<int>(report.checkpointed.size());
          result.recovery.apps_restarted +=
              static_cast<int>(report.killed.size());
          std::size_t displaced = report.evacuable.size() +
                                  report.checkpointed.size() +
                                  report.killed.size();
          for (auto& m : report.evacuable) held.push_back(std::move(m));
          for (auto& m : report.checkpointed) held.push_back(std::move(m));
          for (auto& m : report.killed) held.push_back(std::move(m));
          if (options.hub != nullptr) {
            obs::TraceChannel& ch = options.hub->channel(board.name());
            if (ch.trace_on()) {
              crash_flow = ch.new_flow_id();
              ch.flow(crash_flow, obs::FlowPhase::kStart, e.time,
                      board.name(), "fault", "crash " + board.name());
            }
            if (ch.journal_on()) {
              ch.journal(e.time, obs::JournalEvent::kCrash, board.name(), -1,
                         {}, crash_flow,
                         std::to_string(displaced) + " displaced");
            }
          }
          break;
        }
        case faults::FaultKind::kBoardReboot: {
          ++result.recovery.boards_rebooted;
          // The reboot reloads the full bitstream: fresh slots, empty
          // fabric — then the held apps re-admit into a fresh epoch.
          board.reconfigure_fabric(board.fabric());
          runtime::BoardRuntime& fresh = new_epoch();
          while (!held.empty()) {
            runtime::BoardRuntime::MigratedApp m = std::move(held.front());
            held.pop_front();
            ++result.recovery.readmissions;
            const apps::AppSpec& spec =
                suite.at(static_cast<std::size_t>(m.spec_index));
            if (options.hub != nullptr) {
              obs::TraceChannel& ch = options.hub->channel(board.name());
              if (ch.journal_on()) {
                ch.journal(sim.now(), obs::JournalEvent::kReadmit,
                           board.name(), -1, spec.name, crash_flow);
              }
              if (crash_flow != 0) {
                ch.flow(crash_flow, obs::FlowPhase::kEnd, sim.now(),
                        board.name(), "recovery", "readmit");
                crash_flow = 0;
              }
            }
            fresh.submit_migrated(spec, m, runtime::AppPhase::kRecovery);
          }
          // MTTR on one board: crash to re-admission (re-admission happens
          // at reboot, so the repair window is detection-free downtime).
          result.recovery.mttr_total += sim.now() - last_crash_time;
          ++result.recovery.mttr_count;
          break;
        }
        case faults::FaultKind::kSlotSeu:
          ++result.recovery.slot_seus;
          if (!rt.crashed()) rt.inject_slot_seu(e.slot);
          break;
        case faults::FaultKind::kRackEvent:
          // The (single-board) rack's member crash follows as its own
          // kBoardCrash event; the rack record is bookkeeping.
          ++result.recovery.rack_events;
          break;
        case faults::FaultKind::kLinkDown:
        case faults::FaultKind::kLinkUp:
          break;  // a single board has no Aurora link
      }
    });
    plane->start();
  }

  if (options.telemetry != nullptr) {
    options.telemetry->info().experiment = "single_board";
    options.telemetry->info().config = {
        {"system", system_name(kind)},
        {"board", board.name()},
        {"apps", std::to_string(sequence.size())},
    };
    options.telemetry->start_sampling(sim);
  }

  for (const apps::AppArrival& a : sequence) {
    sim.schedule_at(a.arrival, [&epochs, &held, &suite, a] {
      runtime::BoardRuntime& rt = *epochs.back().runtime;
      if (rt.crashed()) {
        // Board down: hold the arrival for re-admission at reboot. Its
        // original arrival time is kept, so the downtime shows up in the
        // app's response time.
        runtime::BoardRuntime::MigratedApp m;
        m.spec_index = a.spec_index;
        m.batch = a.batch;
        m.arrival = a.arrival;
        m.item_interval = a.item_interval;
        m.state_bytes = 0;
        held.push_back(std::move(m));
        return;
      }
      rt.submit(suite.at(static_cast<std::size_t>(a.spec_index)),
                a.spec_index, a.batch, a.arrival, a.item_interval);
    });
  }
  sim.run(options.time_limit);

  if (!epochs.back().runtime->crashed()) retire(*epochs.back().runtime);
  if (options.record_trace && !options.trace_path.empty()) {
    sim::write_chrome_trace_file(spans, options.trace_path);
  }
  // Snapshot span logs into the hub before the epochs are torn down so the
  // caller can export after this function returns.
  if (options.hub != nullptr) options.hub->seal();
  result.completed = static_cast<int>(result.apps.size());
  result.response = util::summarize(result.response_ms);
  if (plane != nullptr) {
    result.availability = plane->mean_availability(sim.now());
  }
  return result;
}

AggregateResult aggregate(SystemKind kind,
                          const std::vector<apps::AppSpec>& suite,
                          const std::vector<workload::Sequence>& sequences,
                          const RunOptions& options) {
  AggregateResult agg;
  agg.system = system_name(kind);
  for (const workload::Sequence& seq : sequences) {
    RunResult r = run_single_board(kind, suite, seq, options);
    agg.all_responses_ms.insert(agg.all_responses_ms.end(),
                                r.response_ms.begin(), r.response_ms.end());
  }
  util::Summary s = util::summarize(agg.all_responses_ms);
  agg.mean_response_ms = s.mean;
  agg.p95_ms = s.p95;
  agg.p99_ms = s.p99;
  return agg;
}

int recovered_completions(const std::vector<runtime::CompletedApp>& apps) {
  int n = 0;
  for (const runtime::CompletedApp& c : apps) {
    auto phase = static_cast<std::size_t>(runtime::AppPhase::kRecovery);
    if (c.phase_ns[phase] > 0) ++n;
  }
  return n;
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
  if (cluster_options.hub != nullptr) cluster_options.hub->seal();

  ClusterRunResult result;
  result.submitted = cluster.submitted();
  result.completed = static_cast<int>(cluster.completed().size());
  for (const runtime::CompletedApp& c : cluster.completed()) {
    result.apps.push_back(c);
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
