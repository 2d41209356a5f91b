// Experiment harness shared by the benches, tests and examples: runs one
// workload sequence under one of the six compared systems on a fresh
// simulated board (or on the two-board cluster) and collects the metrics
// the paper reports.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/task.h"
#include "cluster/cluster.h"
#include "core/versaslot_policy.h"
#include "fpga/params.h"
#include "obs/telemetry.h"
#include "runtime/board_runtime.h"
#include "runtime/checkpoint.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace vs::metrics {

/// The six systems of Figs 5/6 (Baseline, FCFS, RR, Nimblock, VersaSlot
/// Only.Little, VersaSlot Big.Little) plus the DML extension system (not in
/// the paper's comparison; see baselines/dml.h).
enum class SystemKind {
  kBaseline = 0,
  kFcfs = 1,
  kRoundRobin = 2,
  kNimblock = 3,
  kVersaOnlyLittle = 4,
  kVersaBigLittle = 5,
  kDml = 6,
};

/// The paper's comparison set (Fig 5/6 iterate exactly these).
constexpr int kSystemCount = 6;
/// All implemented systems including extensions.
constexpr int kSystemCountExtended = 7;

[[nodiscard]] const char* system_name(SystemKind kind) noexcept;

/// Fabric configuration each system runs on (Big.Little only for the
/// VersaSlot Big.Little system; all others use the uniform 8-slot layout).
[[nodiscard]] fpga::FabricConfig fabric_for(SystemKind kind);

/// Factory for the scheduler policy of a system. `vs_options` seeds the two
/// VersaSlot variants (mode is overridden per kind) so the ablation benches
/// can flip individual mechanisms.
[[nodiscard]] std::unique_ptr<runtime::SchedulerPolicy> make_policy(
    SystemKind kind, const core::VersaSlotOptions& vs_options = {});

struct RunResult {
  std::string system;
  std::vector<runtime::CompletedApp> apps;  ///< completion order
  std::vector<double> response_ms;   ///< per completed app
  util::Summary response;            ///< summary over response_ms
  runtime::RuntimeCounters counters;
  runtime::UtilizationIntegral utilization;
  sim::SimTime makespan = 0;         ///< completion time of the last app
  int submitted = 0;
  int completed = 0;
};

struct RunOptions {
  fpga::BoardParams board_params;
  core::VersaSlotOptions vs_options;
  /// Overrides the system's default fabric (design-space exploration of
  /// "any Big/Little configuration", §III-A).
  std::optional<fpga::FabricConfig> fabric;
  /// Safety net: abort the run if simulated time passes this bound.
  sim::SimTime time_limit = sim::seconds(36000.0);
  /// Telemetry bundle; null (the default) disables instrumentation. When
  /// set, the harness binds the board stack to its registry, starts its
  /// sampler, and records the run's config echo into its RunInfo. Single
  /// runs only — parallel sweep jobs must leave this null (one registry
  /// cannot be shared across replica threads).
  obs::Telemetry* telemetry = nullptr;
  /// Causal trace / journal hub (obs/trace_hub.h); null (the default)
  /// disables span, flow and journal emission entirely. When set, the
  /// harness binds the runtime to the board's channel, where its records
  /// stay after the run. Same single-run restriction as `telemetry`.
  obs::ClusterTraceHub* hub = nullptr;
  /// Decomposes every app's response time into queue-wait / reconfig /
  /// exec / paused / migration / recovery phases (board_runtime.h) and
  /// exports vs_app_phase_ms histograms when telemetry is bound. Off by
  /// default so instrument-free runs stay byte-identical.
  bool phase_accounting = false;
};

/// Runs `sequence` to completion under `kind` on a fresh single board. The
/// run is fault-free, like the paper's Figs 5–7 grids: crashes, recovery,
/// checkpointing and live migration belong to the cluster (run_cluster).
[[nodiscard]] RunResult run_single_board(
    SystemKind kind, const std::vector<apps::AppSpec>& suite,
    const workload::Sequence& sequence, const RunOptions& options = {});

/// Averages response-time summaries over several sequences (the paper runs
/// 10 sequences per congestion condition and reports means).
struct AggregateResult {
  std::string system;
  double mean_response_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  std::vector<double> all_responses_ms;  ///< pooled across sequences
};

/// Pools per-sequence results (in sequence order) into one
/// AggregateResult.
[[nodiscard]] AggregateResult reduce_aggregate(
    SystemKind kind, const std::vector<RunResult>& per_sequence);

/// Runs every sequence on one board, in order, and pools the results
/// through reduce_aggregate.
[[nodiscard]] AggregateResult aggregate(
    SystemKind kind, const std::vector<apps::AppSpec>& suite,
    const std::vector<workload::Sequence>& sequences,
    const RunOptions& options = {});

/// Cluster run (Fig 8): live D_switch monitoring, optional switching.
struct ClusterRunResult {
  std::vector<runtime::CompletedApp> apps;  ///< completion order
  std::vector<double> response_ms;
  util::Summary response;
  std::vector<core::DSwitchSample> dswitch_trace;
  std::vector<cluster::SwitchEvent> switches;
  int submitted = 0;
  int completed = 0;
  /// Recovery bookkeeping (all zero without a fault scenario).
  cluster::RecoveryStats recovery;
  /// Mean board availability over the run (1.0 without a fault plane).
  double availability = 1.0;
  /// Checkpoint pass accounting summed over every board epoch (all zero
  /// without an active CheckpointPolicy).
  runtime::CheckpointStats checkpoint;
  /// Events executed by the simulator (a pure function of the inputs).
  std::uint64_t events = 0;
};

/// `telemetry`, when non-null, instruments the whole cluster (boards,
/// policies, Aurora link, D_switch loop) and runs its sampler — results are
/// bit-identical either way.
[[nodiscard]] ClusterRunResult run_cluster(
    const std::vector<apps::AppSpec>& suite,
    const workload::Sequence& sequence,
    const cluster::ClusterOptions& options,
    sim::SimTime time_limit = sim::seconds(36000.0),
    obs::Telemetry* telemetry = nullptr);

}  // namespace vs::metrics
