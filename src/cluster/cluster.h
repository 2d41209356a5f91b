// Cluster manager: cross-board switching and live migration (§III-D).
//
// Owns two pools of boards — Only.Little-configured and Big.Little-
// configured (one board each by default, matching the paper's two-ZCU216
// cluster; `boards_per_config` scales the pools) — in one board table in
// FaultPlane order, each board beside the index of its newest epoch. The
// pool matching the current configuration is *active*: arrivals are
// dispatched to its least-loaded board, read from one load cell per pool
// position that each board's runtime keeps current (runtime::LoadCell).
// core::SwitchLoop owns the D_switch decision: the cluster sums the same
// cells into a sample every SwitchLoop::kPeriod candidate-queue updates and
// acts on the action the loop returns. Every epoch appends its completions
// to the cluster's one log. On a switch: every origin board stops
// admitting, applications that have not started — plus started apps paused
// between tasks, which carry their per-task progress and intermediate
// buffers — are extracted and transferred over the Aurora link to the spare
// pool (live migration), new arrivals flow to the new active pool, and
// origin boards drain their ongoing applications to completion before being
// freed (so one available FPGA suffices to switch the whole system).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <ranges>
#include <string>
#include <vector>

#include "apps/task.h"
#include "cluster/aurora.h"
#include "cluster/migration.h"
#include "core/dswitch.h"
#include "core/versaslot_policy.h"
#include "faults/fault_plane.h"
#include "faults/scenario.h"
#include "fpga/board.h"
#include "obs/metrics.h"
#include "runtime/board_runtime.h"
#include "runtime/checkpoint.h"
#include "workload/generator.h"

namespace vs::obs {
class ClusterTraceHub;
class TraceChannel;
}  // namespace vs::obs

namespace vs::cluster {

/// Health-event to recovery-action latency (heartbeat + decision).
inline constexpr sim::SimDuration kDetectionLatency = sim::ms(5.0);

/// The control message each switch, evacuation and rebalance transfer has.
inline constexpr std::int64_t kControlMessageBytes = 4096;

/// Failure-recovery policy knobs (the RecoveryPolicy layer over the
/// FaultPlane's health events).
struct RecoveryOptions {
  /// Evacuate a crashed board's paused apps over the Aurora link with their
  /// progress (live migration as failure recovery) and restart its killed
  /// apps from scratch on a surviving board.
  bool enable_recovery = true;
  /// Baseline recovery: ignore saved progress — every displaced app
  /// restarts from scratch (kill-restart). Only read when enable_recovery
  /// is true. With both flags false, displaced apps are simply lost.
  bool kill_restart = false;
  /// Graceful degradation: when a crash displaces more than this many apps,
  /// zero-progress Little-slot work is shed smallest-batch-first; started
  /// tenants (apps with progress, including Big-slot bundle work) are
  /// always preserved. Default: effectively unlimited (no shedding).
  int shed_threshold = 1 << 30;
  /// Load-aware admission throttle during recovery: while the readmission
  /// queue is non-empty (displaced apps are still waiting for a board),
  /// new arrivals are deferred behind them (kDefer) or dropped outright
  /// (kShed) instead of landing in front of the recovery backlog. kOff
  /// (the default) admits arrivals normally and is byte-identical to the
  /// pre-throttle cluster.
  enum class Throttle : std::uint8_t { kOff, kDefer, kShed };
  Throttle throttle = Throttle::kOff;
};

/// Recovery bookkeeping, available without telemetry (mirrored into obs::
/// instruments when a registry is bound).
struct RecoveryStats {
  int boards_crashed = 0;
  int boards_rebooted = 0;
  int link_flaps = 0;
  int slot_seus = 0;
  int apps_evacuated = 0;  ///< live-migrated with progress preserved
  int apps_checkpoint_restored = 0;  ///< restored from a DDR checkpoint
  int apps_restarted = 0;  ///< displaced and restarted from scratch
  int apps_lost = 0;       ///< no recovery: died with the board
  int apps_shed = 0;       ///< degradation: dropped Little-slot work
  int readmissions = 0;    ///< placed from the re-admission queue
  int rack_events = 0;     ///< common-mode rack events (kRackEvent) observed
  /// Crash batches that found the whole active pool down and the spare
  /// pool dead or draining too: no board anywhere to fail over to. The
  /// displaced apps queue for re-admission and the throttle (if on)
  /// defers/sheds fresh arrivals behind them.
  int spare_exhausted = 0;
  /// Admission throttle (RecoveryOptions::throttle; zero when kOff).
  int arrivals_deferred = 0;  ///< held behind the readmission backlog
  int arrivals_shed = 0;      ///< dropped while recovery was in progress
  sim::SimDuration mttr_total = 0;  ///< sum over crashes (see mttr_count)
  int mttr_count = 0;

  [[nodiscard]] double mttr_ms_mean() const noexcept {
    return mttr_count > 0
               ? sim::to_ms(mttr_total) / static_cast<double>(mttr_count)
               : 0.0;
  }
  RecoveryStats& operator+=(const RecoveryStats& o) noexcept {
    boards_crashed += o.boards_crashed;
    boards_rebooted += o.boards_rebooted;
    link_flaps += o.link_flaps;
    slot_seus += o.slot_seus;
    apps_evacuated += o.apps_evacuated;
    apps_checkpoint_restored += o.apps_checkpoint_restored;
    apps_restarted += o.apps_restarted;
    apps_lost += o.apps_lost;
    apps_shed += o.apps_shed;
    readmissions += o.readmissions;
    rack_events += o.rack_events;
    spare_exhausted += o.spare_exhausted;
    arrivals_deferred += o.arrivals_deferred;
    arrivals_shed += o.arrivals_shed;
    mttr_total += o.mttr_total;
    mttr_count += o.mttr_count;
    return *this;
  }
};

struct ClusterOptions {
  // Schmitt thresholds. Note the dynamic range of D_switch: with batch
  // sizes in [5, 30] the future-contention factor N_apps/N_batch is at most
  // ~1/5 and typically ~1/17 per queued app, so useful thresholds sit well
  // below the metric's theoretical (0,1) bound.
  double t1 = 0.030;  ///< upper threshold (Only.Little -> Big.Little)
  double t2 = 0.008;  ///< lower threshold (Big.Little -> Only.Little)
  bool enable_switching = true;  ///< off, D_switch is sampled, never acted on
  int boards_per_config = 1;        ///< pool size per fabric configuration
  fpga::BoardParams board_params;
  fpga::LinkParams link_params;
  /// Telemetry registry; null (the default) disables instrumentation. When
  /// set, every board epoch, policy, the Aurora link, and the D_switch loop
  /// bind their instruments here. The registry must outlive the cluster.
  obs::MetricsRegistry* metrics = nullptr;
  /// Fault injection. When `faults.enabled()` is false (the default) no
  /// FaultPlane is constructed and every code path is identical to a
  /// fault-free build — outputs stay byte-for-byte the same.
  faults::FaultScenario faults;
  RecoveryOptions recovery;
  /// Periodic DDR checkpointing on every board epoch. Inactive (the
  /// default) schedules nothing and keeps all outputs byte-identical;
  /// active, crashed bundled apps restore to their last snapshot instead
  /// of restarting from scratch.
  runtime::CheckpointPolicy checkpoint;
  /// Iterative pre-copy live migration for D_switch switches (see
  /// cluster/migration.h). Inactive (the default) keeps the whole-state
  /// stop-and-copy path byte-identical. Active, every board epoch tracks
  /// DDR dirty regions at `checkpoint.granularity` (the dirty map is
  /// shared with delta checkpointing) and switches stream state while the
  /// origins keep executing.
  MigrationPolicy migration;
  /// Cluster-wide causal observability (obs/trace_hub.h). Null (the
  /// default) keeps tracing/journalling off and every output byte-identical.
  /// When set, every epoch of a board records spans, journal records and
  /// cross-board flow events through the board's channel, and the
  /// coordinator through its own. The hub must outlive the cluster.
  obs::ClusterTraceHub* hub = nullptr;
  /// Response-time phase accounting on every board epoch (see
  /// runtime::AppPhase). Off (the default) keeps vs_app_phase_ms
  /// unregistered and exports byte-identical.
  bool phase_accounting = false;
};

struct SwitchEvent {
  sim::SimTime time = 0;
  core::SwitchLoop::Config to = core::SwitchLoop::Config::kBigLittle;
  double dswitch = 0.0;
  int apps_migrated = 0;
  std::int64_t bytes = 0;  ///< total transferred (streamed + stop-and-copy)
  sim::SimDuration overhead = 0;  ///< decision-to-placement span (on done)
  // Pre-copy breakdown (whole-state switches leave rounds/precopy at 0 and
  // report their full transfer as the stop-and-copy downtime).
  int precopy_rounds = 0;          ///< rounds streamed while origins ran
  std::int64_t precopy_bytes = 0;  ///< bytes streamed before the stop
  std::int64_t stopcopy_bytes = 0; ///< final stop-and-copy transfer bytes
  sim::SimDuration downtime = 0;   ///< stop-and-copy transfer time (on done)
};

class Cluster {
 public:
  Cluster(sim::Simulator& sim, const std::vector<apps::AppSpec>& suite,
          ClusterOptions options = {});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Schedules all arrivals of a workload sequence into the simulator.
  /// Each arrival is dispatched to the least-loaded active board.
  void submit_sequence(const workload::Sequence& sequence);

  // --- Serving-plane entry points (serve::ResourceManager) -------------
  /// Dispatches one arrival *now* (call inside an event at its arrival
  /// time) to least_loaded_or_null(warm_spec). A fully down cluster holds
  /// the arrival for re-admission at the next reboot, and the recovery
  /// throttle (RecoveryOptions::throttle) may defer or shed it while the
  /// readmission queue is non-empty.
  void dispatch_arrival(const apps::AppArrival& a, int warm_spec = -1);
  /// The least-loaded board of the active pool, first in pool order among
  /// equals, or null when every board is down. With `warm_spec` >= 0 it
  /// minimises 2*load minus one for a board already running that spec
  /// (Butler-style affinity: its placement-specific bitstreams are warm).
  /// Loads are integers, so the bonus only breaks ties at the minimum load.
  /// One pass over the pool's load cells: no runtime is visited.
  [[nodiscard]] runtime::BoardRuntime* least_loaded_or_null(
      int warm_spec = -1);
  /// Cluster-level completion hook, invoked after the cluster's own
  /// bookkeeping (D_switch sampling) for each completed app.
  void set_on_app_complete(
      std::function<void(const runtime::CompletedApp&)> fn) {
    on_app_complete_ = std::move(fn);
  }
  /// Load rebalancing over the Aurora link: when the spread between the
  /// most- and least-loaded active boards reaches `min_spread`, the most
  /// loaded board's unstarted apps live-migrate to the least loaded ones
  /// (the same transfer + re-admission path as a D_switch migration).
  /// Returns the number of apps put in flight (0 = balanced or nothing
  /// migratable).
  int rebalance_active(int min_spread);

  /// All apps completed across boards and epochs: the one log every
  /// epoch's runtime appends to.
  [[nodiscard]] const std::vector<runtime::CompletedApp>& completed()
      const noexcept {
    return completed_;
  }
  /// The D_switch loop: its trace() is every sample taken.
  [[nodiscard]] const core::SwitchLoop& dswitch() const noexcept {
    return loop_;
  }
  [[nodiscard]] const std::vector<SwitchEvent>& switches() const noexcept {
    return switch_events_;
  }
  [[nodiscard]] core::SwitchLoop::Config active_config() const noexcept {
    return loop_.config();
  }
  /// The board at `pos` in the active pool (pools of size 1 have exactly
  /// one).
  [[nodiscard]] runtime::BoardRuntime& active_runtime(int pos = 0) {
    return runtime_of(active_epochs_.at(static_cast<std::size_t>(pos)));
  }
  [[nodiscard]] int active_board_count() const noexcept {
    return static_cast<int>(active_epochs_.size());
  }
  [[nodiscard]] const ClusterOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] int submitted() const noexcept { return submitted_; }

  /// True when every submitted app has completed.
  [[nodiscard]] bool all_done() const noexcept {
    return static_cast<int>(completed_.size()) == submitted_;
  }

  /// Recovery bookkeeping (all zero when no faults were injected).
  [[nodiscard]] const RecoveryStats& recovery_stats() const noexcept {
    return recovery_stats_;
  }
  /// Checkpoint pass accounting summed over every board epoch (all zero
  /// without an active CheckpointPolicy).
  [[nodiscard]] runtime::CheckpointStats checkpoint_stats() const {
    runtime::CheckpointStats total;
    for (const auto& e : epochs_) total += e->runtime->checkpoint_stats();
    return total;
  }
  /// Fault plane, or null when `options.faults` is disabled.
  [[nodiscard]] const faults::FaultPlane* fault_plane() const noexcept {
    return fault_plane_.get();
  }

 private:
  using MigratedApp = runtime::BoardRuntime::MigratedApp;
  using Config = core::SwitchLoop::Config;
  /// One runtime lifetime of a board, until it drains or crashes.
  struct Epoch {
    std::unique_ptr<core::VersaSlotPolicy> policy;
    std::unique_ptr<runtime::BoardRuntime> runtime;
  };
  /// One row of the board table.
  struct BoardEntry {
    std::unique_ptr<fpga::Board> board;
    int epoch = -1;  ///< the board's newest epoch (-1 before its first)
  };

  /// Starts a fresh epoch on board `board` (a FaultPlane id) and makes it
  /// the board's newest; the previous one must have drained or crashed.
  int new_epoch(int board);
  [[nodiscard]] runtime::BoardRuntime& runtime_of(int epoch) {
    return *epochs_[static_cast<std::size_t>(epoch)]->runtime;
  }
  /// Board `board`'s newest epoch while it holds apps, else null. Its
  /// older epochs never do (see new_epoch), so faults act on this one.
  [[nodiscard]] runtime::BoardRuntime* live_runtime(int board);
  /// The pool of board `board` (a FaultPlane id).
  [[nodiscard]] Config config_of(int board) const noexcept {
    return board < options_.boards_per_config ? Config::kOnlyLittle
                                              : Config::kBigLittle;
  }
  /// The other pool's configuration.
  [[nodiscard]] static Config other(Config config) noexcept {
    return config == Config::kBigLittle ? Config::kOnlyLittle
                                        : Config::kBigLittle;
  }
  /// The FaultPlane ids of `config`'s pool, in pool order.
  [[nodiscard]] auto pool_ids(Config config) const {
    const int n = options_.boards_per_config;
    const int first = config == Config::kBigLittle ? n : 0;
    return std::views::iota(first, first + n);
  }
  [[nodiscard]] bool board_up(int board) const {
    return fault_plane_ == nullptr || fault_plane_->board_up(board);
  }
  /// Every board of `config`'s pool is up.
  [[nodiscard]] bool pool_up(Config config) const;
  void activate_pool(Config config);
  /// Replaces the active pool and rebinds the load cells: boards leaving
  /// the pool stop writing, and each member writes the cell at its
  /// position.
  void set_active_pool(std::vector<int> epochs);
  void on_queue_update();
  void sample_and_act();
  void prewarm(Config config);
  void do_switch(Config target, double d);
  // --- Pre-copy migration (MigrationPolicy) ---------------------------
  /// One in-flight pre-copy migration: origin epochs keep executing while
  /// rounds stream; shared across the round-completion closures.
  struct PrecopyState {
    Config target = Config::kBigLittle;
    std::vector<int> origins;          ///< epoch indices streaming out
    std::size_t event_index = 0;       ///< into switch_events_
    sim::SimTime t0 = 0;               ///< switch decision time
    int rounds = 0;                    ///< streamed rounds so far
    std::int64_t first_round_bytes = 0;
    std::int64_t streamed = 0;         ///< bytes streamed so far
    std::uint64_t flow = 0;            ///< causal flow id (0 = tracing off)
  };
  void begin_precopy(Config target, double d);
  void precopy_round(std::shared_ptr<PrecopyState> st, std::int64_t bytes);
  void finish_precopy(std::shared_ptr<PrecopyState> st,
                      std::int64_t final_dirty);
  /// Places transferred apps on the least-loaded active boards, or queues
  /// them for re-admission when none is up. Shared by both switch paths
  /// and rebalancing; `flow` (0 = tracing off) ends at the first resume,
  /// or on the coordinator's lane when no app resumes.
  void land_migrated(std::vector<MigratedApp> migrated, std::uint64_t flow);
  /// Flow/journal origin of a switch: the first origin board's name, or
  /// "cluster" when the active pool is empty.
  [[nodiscard]] std::string origin_name(const std::vector<int>& origins) const;
  /// The pool for `config` is free when no board's newest epoch holds apps
  /// (a crashed one holds none).
  [[nodiscard]] bool pool_free(Config config);

  // --- Fault plane and recovery ---------------------------------------
  /// Progress accounting for one crash: MTTR is measured from the crash to
  /// the placement of its last displaced app (or to detection when the
  /// board was empty). Shared across the per-app placement closures.
  struct CrashTicket {
    sim::SimTime crash_time = 0;
    int remaining = 0;
    std::uint64_t flow = 0;   ///< crash→evac→readmit flow (0 = tracing off)
    bool flow_done = false;   ///< flow terminus already emitted
  };
  struct ReadmitEntry {
    MigratedApp app;
    std::shared_ptr<CrashTicket> ticket;  ///< null for deferred arrivals
  };
  /// Batched detection, the one crash path: board losses landing inside one
  /// detection window (a rack event's member losses, or independent crashes
  /// that coincide) coalesce into one recovery action — one shed decision,
  /// one failover, one evacuation transfer, one MTTR ticket measured from
  /// the *first* crash.
  struct PendingBatch {
    std::vector<MigratedApp> evacuable;
    std::vector<MigratedApp> killed;
    sim::SimTime crash_time = 0;  ///< first crash of the batch
    std::uint64_t flow = 0;       ///< the batch's causal flow
  };
  void on_health_event(const faults::HealthEvent& e);
  void handle_crash(PendingBatch batch);
  /// Records one MTTR sample: from `crash_time` to now.
  void close_mttr(sim::SimTime crash_time);
  void place_displaced(MigratedApp app,
                       const std::shared_ptr<CrashTicket>& ticket);
  void drain_readmit_queue();
  /// The one re-admission body: closes the crash flow, submits `app` on
  /// `rt` in recovery transit, records its evacuation latency and finishes
  /// its ticket (null for held arrivals and landed migrations), then feeds
  /// the D_switch queue count.
  void readmit(runtime::BoardRuntime& rt, const MigratedApp& app,
               const std::shared_ptr<CrashTicket>& ticket);

  sim::Simulator& sim_;
  const std::vector<apps::AppSpec>& suite_;
  ClusterOptions options_;
  /// Every board, in FaultPlane order: the Only.Little pool, then the
  /// Big.Little pool. An entry's index is the plane's board id, and
  /// index < boards_per_config tells its pool.
  std::vector<BoardEntry> boards_;
  AuroraLink link_;
  core::SwitchLoop loop_;
  /// The one completion log; it outlives the epochs that append to it.
  std::vector<runtime::CompletedApp> completed_;
  std::vector<std::unique_ptr<Epoch>> epochs_;
  std::vector<int> active_epochs_;  ///< indices into epochs_
  /// One load cell per active_epochs_ position (see set_active_pool):
  /// routing and D_switch sampling read these, not the runtimes.
  std::vector<runtime::LoadCell> pool_cells_;
  std::vector<SwitchEvent> switch_events_;
  std::function<void(const runtime::CompletedApp&)> on_app_complete_;
  int submitted_ = 0;
  /// A pre-copy migration is streaming; further switches defer until its
  /// stop-and-copy lands (the origins are still mid-extraction).
  bool precopy_active_ = false;
  /// Coordinator channel of options_.hub (null when no hub is attached).
  obs::TraceChannel* obs_ = nullptr;

  // Fault plane (null when options.faults is disabled) and recovery state.
  std::unique_ptr<faults::FaultPlane> fault_plane_;
  std::deque<ReadmitEntry> readmit_queue_;
  RecoveryStats recovery_stats_;
  PendingBatch batch_;       ///< crash batch of the open detection window
  bool batch_open_ = false;  ///< batch_ has a handler scheduled

  // Telemetry: switch-loop instruments (no-ops when options.metrics null).
  obs::CounterHandle m_dswitch_evals_;   ///< vs_dswitch_evaluations_total
  obs::CounterHandle m_switches_;        ///< vs_dswitch_switches_total
  obs::CounterHandle m_migrated_apps_;   ///< vs_cluster_migrated_apps_total
  obs::GaugeHandle m_dswitch_value_;     ///< vs_dswitch_value
  obs::GaugeHandle m_active_apps_;       ///< vs_cluster_active_apps
  // Recovery instruments.
  obs::CounterHandle m_evacuated_;    ///< vs_recovery_evacuated_apps_total
  /// vs_recovery_checkpoint_restored_apps_total (checkpointing only).
  obs::CounterHandle m_ckpt_restored_;
  obs::CounterHandle m_restarted_;    ///< vs_recovery_restarted_apps_total
  obs::CounterHandle m_lost_;         ///< vs_recovery_lost_apps_total
  obs::CounterHandle m_shed_;         ///< vs_recovery_shed_apps_total
  obs::CounterHandle m_readmitted_;   ///< vs_recovery_readmissions_total
  /// vs_recovery_spare_exhausted_total (failure domains only).
  obs::CounterHandle m_spare_exhausted_;
  obs::HistogramHandle m_evac_latency_;  ///< vs_recovery_evac_latency_ms
  obs::HistogramHandle m_mttr_;          ///< vs_recovery_mttr_ms
  // Admission-throttle instruments (registered only when
  // recovery.throttle != kOff, so throttle-free exports stay identical).
  obs::CounterHandle m_throttle_deferred_;  ///< vs_throttle_deferred_total
  obs::CounterHandle m_throttle_shed_;      ///< vs_throttle_shed_total
  // Checkpoint-restore instruments (faults + checkpointing only).
  obs::HistogramHandle m_restored_items_;   ///< vs_ckpt_restored_items
  obs::HistogramHandle m_rerun_window_ms_;  ///< vs_ckpt_rerun_window_ms
  // Pre-copy instruments (registered only when migration.active()).
  obs::CounterHandle m_migration_rounds_;   ///< vs_migration_rounds_total
  obs::CounterHandle m_precopy_bytes_;  ///< vs_migration_precopy_bytes_total
  obs::HistogramHandle m_migration_downtime_ms_;  ///< vs_migration_downtime_ms
};

}  // namespace vs::cluster
