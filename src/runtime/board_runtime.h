// BoardRuntime: the execution engine for one FPGA board.
//
// Owns application runtime state and drives the board hardware models:
// scheduler passes and batch launches run as operations on the scheduler
// core, PR loads go through the SD card + PCAP (suspending the issuing
// core), batch items execute in slots with item-wise pipeline dependencies
// between a pipeline's units. All policy decision logic is delegated to a
// SchedulerPolicy; all blocked-time accounting needed by the D_switch metric
// is collected here.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "apps/bundling.h"
#include "apps/task.h"
#include "fpga/board.h"
#include "obs/metrics.h"
#include "runtime/checkpoint.h"
#include "runtime/dirty_map.h"
#include "runtime/policy.h"

namespace vs::obs {
class TraceChannel;
using NameId = std::uint32_t;
}  // namespace vs::obs

namespace vs::runtime {

/// Packs a unit's identity into the bitstream-store key. DFX partial
/// bitstreams are placement-specific — the offline flow generates one per
/// (application, task range, mode, *target slot*), "adaptive to each slot"
/// (§III-A) — so the key includes the concrete slot id: a task that has
/// been loaded into L2 before still pays the SD fetch the first time it
/// lands in L5. Shared with the cluster layer for SD-cache pre-warming.
[[nodiscard]] fpga::BitstreamKey unit_bitstream_key(
    int spec_index, const apps::UnitSpec& unit, int slot_id) noexcept;

enum class UnitState : std::uint8_t {
  kPending,        ///< not placed in a slot
  kReconfiguring,  ///< PR in flight
  kRunning,        ///< configured in a slot (possibly executing an item)
  kFinished,       ///< all batch items done
};
inline constexpr std::size_t kUnitStateCount = 4;

/// Hot-first: what every item reads (state, flags, slot, progress) leads,
/// and the spec follows with its per-item fields first (apps::UnitSpec).
struct UnitRun {
  UnitState state = UnitState::kPending;
  bool item_in_flight = false;
  bool pr_was_blocked = false; ///< this unit's last PR waited in the PCAP FIFO
  bool seu_poisoned = false;   ///< SEU hit mid-PR/mid-item: discard on finish
  int slot = -1;               ///< slot id; -2 = full-fabric (baseline)
  int items_done = 0;
  apps::UnitSpec spec;
};

/// Response-time phases. Every nanosecond between an app's arrival and its
/// completion is attributed to exactly one phase, so the per-app phase sums
/// reconcile exactly with the response-time histogram (the invariant the
/// PhaseAccounting property tests pin).
enum class AppPhase : std::uint8_t {
  kQueueWait,  ///< admitted (or still in transit) but never started
  kReconfig,   ///< at least one unit mid-PR, none executing
  kExec,       ///< at least one unit executing a batch item
  kPaused,     ///< started, configured or preempted, nothing in flight
  kMigration,  ///< in a migration transfer (D_switch / pre-copy stop-copy)
  kRecovery,   ///< in a crash evacuation / restore / readmission path
};
inline constexpr std::size_t kAppPhaseCount = 6;

[[nodiscard]] const char* to_string(AppPhase p) noexcept;

/// One live app's runtime state, in a slot of its board's app pool (see
/// BoardRuntime::app_slots()). What the item, launch and pass paths read
/// leads; the checkpoint and dirty-tracking state goes last.
struct AppRun {
  int id = -1;
  const apps::AppSpec* spec = nullptr;
  int spec_index = -1;
  int batch = 1;
  sim::SimTime arrival = 0;   ///< cluster arrival (response time base)
  sim::SimDuration item_interval = 0;  ///< streaming source period (0 = staged)
  std::vector<UnitRun> units;
  /// Bit i of unit_masks[s] is set while units[i] is in UnitState s, and of
  /// in_flight_mask while it has an item in flight. Only BoardRuntime
  /// writes them, at admission, set_units and each transition (audit I5).
  static constexpr std::size_t kMaxUnits = 32;
  std::array<std::uint32_t, kUnitStateCount> unit_masks{};
  std::uint32_t in_flight_mask = 0;
  bool started = false;       ///< any PR ever issued for it
  /// Queued for the next pass's launch scan (see BoardRuntime::launch_marks).
  bool launch_marked = false;
  sim::SimTime stream_kick = -1;  ///< pending wake-up for streamed items
  /// Starvation clock, read by the preempting policies while the app is
  /// slot-less(): its admission, then, each time it becomes slot-less, the
  /// runtime's last pass time. Only BoardRuntime writes it.
  sim::SimTime wait_since = 0;
  sim::SimTime admitted = 0;  ///< when this board received the app
  int tenant = -1;  ///< serving plane: owning tenant (-1 = closed workload)
  /// Phase accounting (zero-cost unless enable_phase_accounting()):
  /// nanoseconds attributed per phase, the phase the app is currently in,
  /// and when it entered it. Carried across boards through MigratedApp.
  std::array<sim::SimDuration, kAppPhaseCount> phase_ns{};
  AppPhase phase = AppPhase::kQueueWait;
  sim::SimTime phase_since = 0;
  /// Last DDR checkpoint (CheckpointPolicy): expanded per-task progress,
  /// when it was taken (-1 = never), and the byte volume a crash
  /// evacuation ships to restore it — the reconstructed image in both
  /// modes (a restore reads each surviving region once, so a delta chain
  /// never ships more than the union of its base + delta regions).
  std::vector<int> ckpt_progress;
  sim::SimTime ckpt_time = -1;
  std::int64_t ckpt_bytes = 0;
  /// Deltas chained onto the current base snapshot (delta mode only).
  int ckpt_chain = 0;
  /// Pre-copy: this app's migratable footprint has been streamed to the
  /// target at least once this migration (later rounds ship only dirt).
  bool precopy_streamed = false;
  /// Causal flow id of this app's checkpoint base→delta→restore chain
  /// (0 = none yet); only assigned when cluster tracing is on.
  std::uint64_t ckpt_flow = 0;
  /// DDR dirty-region map; empty unless the board tracks dirty state
  /// (delta checkpointing and/or pre-copy migration).
  DirtyMap dirty;

  /// Items of the first pipeline stage available from the source by `now`.
  [[nodiscard]] int items_available(sim::SimTime now) const noexcept {
    if (item_interval <= 0) return batch;
    if (now < arrival) return 0;
    auto streamed =
        static_cast<std::int64_t>((now - arrival) / item_interval) + 1;
    return static_cast<int>(
        std::min<std::int64_t>(streamed, batch));
  }
  [[nodiscard]] std::uint32_t units_mask(UnitState state) const noexcept {
    return unit_masks[static_cast<std::size_t>(state)];
  }
  /// Running units with no item in flight: configured, between items.
  [[nodiscard]] std::uint32_t idle_units() const noexcept {
    return units_mask(UnitState::kRunning) & ~in_flight_mask;
  }
  [[nodiscard]] int units_finished() const noexcept {
    return std::popcount(units_mask(UnitState::kFinished));
  }
  /// Unfinished units (the N_T of Algorithm 1).
  [[nodiscard]] int units_unfinished() const noexcept {
    return static_cast<int>(units.size()) - units_finished();
  }
  /// Units currently holding a slot (reconfiguring or running).
  [[nodiscard]] int units_placed() const noexcept {
    return std::popcount(units_mask(UnitState::kReconfiguring) |
                         units_mask(UnitState::kRunning));
  }
  /// Units waiting for a slot.
  [[nodiscard]] int units_pending() const noexcept {
    return std::popcount(units_mask(UnitState::kPending));
  }
  /// Units pending and none placed: the app waits for a slot, holding none.
  [[nodiscard]] bool slotless() const noexcept {
    return (units_mask(UnitState::kReconfiguring) |
            units_mask(UnitState::kRunning)) == 0 &&
           units_mask(UnitState::kPending) != 0;
  }
  /// Index of the lowest pending unit (pipeline order), or -1.
  [[nodiscard]] int next_pending_unit() const noexcept {
    const std::uint32_t pending = units_mask(UnitState::kPending);
    return pending == 0 ? -1 : std::countr_zero(pending);
  }
};

struct RuntimeCounters {
  std::int64_t pr_requests = 0;
  std::int64_t pr_blocked = 0;       ///< PRs that waited behind another PR
  std::int64_t launch_blocked = 0;   ///< passes delayed by a PR on the core
  std::int64_t items_executed = 0;
  std::int64_t apps_completed = 0;
  std::int64_t apps_extracted = 0;  ///< left for another board or a crash
  std::int64_t preemptions = 0;
  std::int64_t passes = 0;
  std::int64_t ckpt_snapshots = 0;  ///< per-app snapshots committed
  std::int64_t ckpt_bytes = 0;      ///< total snapshot bytes copied
};

/// Time-integrated fabric utilisation (numerators in resource·ns).
struct UtilizationIntegral {
  double lut_used = 0, ff_used = 0;
  double lut_capacity = 0, ff_capacity = 0;  ///< occupied slots only
  double lut_fabric = 0, ff_fabric = 0;      ///< whole reconfigurable fabric

  [[nodiscard]] double lut_of_occupied() const {
    return lut_capacity > 0 ? lut_used / lut_capacity : 0.0;
  }
  [[nodiscard]] double ff_of_occupied() const {
    return ff_capacity > 0 ? ff_used / ff_capacity : 0.0;
  }
};

/// One active-pool position's state, as the cluster reads it instead of the
/// board's runtime: for routing, the live-app count and one bit per app spec
/// with a live app there (specs past the mask width get no bit); for
/// D_switch, the live apps' batch sum and the blocked events and PR requests
/// since the cluster last took that window.
struct LoadCell {
  static constexpr int kSpecBits = 64;
  int load = 0;
  int batch = 0;
  std::uint64_t specs = 0;
  std::int64_t blocked = 0;
  std::int64_t prs = 0;

  [[nodiscard]] bool warm(int spec_index) const noexcept {
    return spec_index >= 0 && spec_index < kSpecBits &&
           ((specs >> spec_index) & 1U) != 0;
  }
  bool operator==(const LoadCell&) const noexcept = default;
};

/// One completion. The spec's name is the suite's at `spec_index`.
struct CompletedApp {
  int app_id;
  int spec_index;
  sim::SimTime arrival;
  sim::SimTime completed;
  /// Serving plane: owning tenant (-1 = closed workload). Survives
  /// migration and recovery with the app.
  int tenant = -1;
  /// Per-phase attribution; all zero unless phase accounting was enabled,
  /// in which case the entries sum exactly to completed - arrival.
  std::array<sim::SimDuration, kAppPhaseCount> phase_ns{};
  [[nodiscard]] double response_ms() const {
    return sim::to_ms(completed - arrival);
  }
};

class BoardRuntime {
 public:
  /// Throws std::invalid_argument when the board has more than 64 slots
  /// (the idle masks hold one bit per slot).
  BoardRuntime(fpga::Board& board, SchedulerPolicy& policy);

  BoardRuntime(const BoardRuntime&) = delete;
  BoardRuntime& operator=(const BoardRuntime&) = delete;

  // ---------------------------------------------------------------- admission
  /// Admits an application instance; returns its runtime id. Units default
  /// to the Little (per-task) decomposition; policies re-unitise via
  /// set_units before the first PR. A non-zero `item_interval` makes the
  /// batch *streaming*: item i only becomes available at
  /// arrival + i * item_interval (dynamic batch processing, §III-A). Apps of
  /// over AppRun::kMaxUnits units throw std::invalid_argument (set_units too).
  int submit(const apps::AppSpec& spec, int spec_index, int batch,
             sim::SimTime arrival, sim::SimDuration item_interval = 0,
             int tenant = -1);

  /// Stops accepting new apps (migration origin drain).
  void stop_admission() noexcept { admission_open_ = false; }
  [[nodiscard]] bool admission_open() const noexcept {
    return admission_open_;
  }

  // ------------------------------------------------------- policy commands
  /// Replaces an app's unit decomposition (bundling / rebinding), copying
  /// `units` into the app's unit storage. Only legal before the app has
  /// started. Allocates nothing when the app has at least as many tasks as
  /// `units` has entries, as every bundling of it does.
  void set_units(int app_id, std::span<const apps::UnitSpec> units);

  /// Requests partial reconfiguration of a pending unit into an idle slot of
  /// the matching kind. Asynchronous: the PR server (or the scheduler core
  /// in single-core mode) performs SD fetch + PCAP load.
  void request_pr(int app_id, int unit_index, int slot_id);

  /// Full-fabric reconfiguration for the exclusive baseline: loads the
  /// app's monolithic bitstream, after which every unit runs concurrently
  /// without slot constraints. Requires the fabric to be otherwise empty.
  void request_full_reconfig(int app_id);

  /// Preempts a unit that is configured but not mid-item: releases its slot
  /// and returns it to Pending. Completed items are preserved (buffers stay
  /// in DDR).
  void preempt_unit(int app_id, int unit_index);

  // ---------------------------------------------------------------- queries
  [[nodiscard]] fpga::Board& board() noexcept { return board_; }
  [[nodiscard]] const fpga::Board& board() const noexcept { return board_; }
  [[nodiscard]] sim::SimTime sim_now() const noexcept { return sim_.now(); }
  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }

  /// Apps admitted so far: ids run from 0 to admitted() - 1, one per
  /// submit, and are never reused.
  [[nodiscard]] int admitted() const noexcept {
    return static_cast<int>(slot_of_.size());
  }
  /// True while app `id` is live (admitted, not completed, not extracted).
  /// Whoever holds an id past the event that handed it out asks this
  /// before app(id): a departed app's slot may hold another app by then.
  [[nodiscard]] bool live(int id) const noexcept {
    return static_cast<std::size_t>(id) < slot_of_.size() &&
           slot_of_[static_cast<std::size_t>(id)] >= 0;
  }
  /// A live app's state. Throws std::out_of_range for an id that is not
  /// live: a departed app's state is gone (completed() keeps its record).
  [[nodiscard]] AppRun& app(int id) {
    return apps_.at(static_cast<std::size_t>(
        slot_of_.at(static_cast<std::size_t>(id))));
  }
  [[nodiscard]] const AppRun& app(int id) const {
    return apps_.at(static_cast<std::size_t>(
        slot_of_.at(static_cast<std::size_t>(id))));
  }
  /// App slots the board holds. A slot is reused once its app leaves the
  /// live set, and the pool grows only when every slot is busy, so this is
  /// the most apps the board has held live at once.
  [[nodiscard]] std::size_t app_slots() const noexcept { return apps_.size(); }

  /// Clears `out` and fills it with the ids of the idle slots of `kind`, in
  /// ascending order. Policies pass a buffer they keep, so a pass does not
  /// allocate once the buffer has grown to the slot count.
  void idle_slots(fpga::SlotKind kind, std::vector<int>& out) const;
  /// The idle slots of `kind`, bit i for slot id i (kept, never recounted).
  [[nodiscard]] std::uint64_t idle_mask(fpga::SlotKind kind) const noexcept {
    return idle_masks_[static_cast<std::size_t>(kind)];
  }
  /// Slots in `state` (kept, never recounted).
  [[nodiscard]] int slot_count(fpga::SlotState state) const noexcept {
    return slot_counts_[static_cast<std::size_t>(state)];
  }

  /// Placement: removes and returns the slot of `idle` whose placement-
  /// specific bitstream for (app, unit) is already staged in DDR (skipping
  /// the SD fetch), or the first one when none is. All policies pick slots
  /// through this — the PR server knows its cache either way.
  int take_slot(int app_id, int unit_index, std::vector<int>& idle) const;

  /// True when the next item of `unit` has its upstream dependency
  /// satisfied (unit 0 is always ready until the batch is exhausted).
  [[nodiscard]] bool item_ready(const AppRun& app, int unit_index) const;

  /// Ids of the live apps — admitted, not completed, not extracted — in
  /// ascending order. Policies and drivers walk this, so a pass costs
  /// O(load) rather than O(run history). Only admission, completion and
  /// extraction change it — none of which a policy pass triggers
  /// synchronously — so a pass may iterate it in place.
  [[nodiscard]] const std::vector<int>& live_ids() const noexcept {
    return live_;
  }
  /// Counts changes to what slot allocation and placement read of the
  /// runtime: admission, live-set exit, set_units, every slot occupied or
  /// released, and every unit-state transition but a PR completion
  /// (reconfiguring -> running, which keeps the unit placed) each bump it.
  [[nodiscard]] std::uint64_t allocation_changes() const noexcept {
    return allocation_changes_;
  }
  /// Live apps that are slot-less (AppRun::slotless()); kept at every
  /// transition, never recounted. Zero means no app can be starving.
  [[nodiscard]] int slotless_apps() const noexcept { return slotless_apps_; }
  /// Ids of the apps the next pass's launch scan visits, in marking order.
  /// An app is marked when an item of it ends, a PR or full-fabric load of
  /// it completes, or its stream kick fires: only then can it gain a ready
  /// idle unit (audit I11), so the scan skips every other app.
  [[nodiscard]] const std::vector<int>& launch_marks() const noexcept {
    return launch_marks_;
  }
  /// Live apps: neither complete nor extracted.
  [[nodiscard]] int active_apps() const noexcept {
    return static_cast<int>(live_.size());
  }
  [[nodiscard]] bool drained() const noexcept { return active_apps() == 0; }

  /// Moves the load state into `cell` (the cluster's active-pool cell at
  /// this board's position), or back into the runtime's own cell for null.
  /// The runtime then keeps it current there, so routing and D_switch
  /// sampling read one cell per board instead of walking runtimes.
  void bind_load_cell(LoadCell* cell) noexcept;
  /// The bound cell, or null when unbound.
  [[nodiscard]] const LoadCell* load_cell() const noexcept {
    return cell_ == &own_cell_ ? nullptr : cell_;
  }
  /// The load state wherever it lives: the bound cell or the own cell.
  [[nodiscard]] const LoadCell& load_state() const noexcept { return *cell_; }
  /// Live apps of spec `spec_index` on this board.
  [[nodiscard]] int live_of_spec(int spec_index) const noexcept {
    auto s = static_cast<std::size_t>(spec_index);
    return s < live_per_spec_.size() ? live_per_spec_[s] : 0;
  }

  /// Resources of the units running right now (live kRunning units).
  [[nodiscard]] const fpga::ResourceVector& used_resources() const noexcept {
    return used_;
  }
  /// Capacity of the occupied fabric right now: every non-idle slot, or the
  /// whole reconfigurable fabric while a full-fabric app owns the board.
  [[nodiscard]] const fpga::ResourceVector& occupied_resources()
      const noexcept {
    return full_fabric_app_ >= 0 ? board_.fabric_capacity() : occupied_;
  }
  /// Exclusive baseline: the app owning the whole fabric (-1 = none).
  [[nodiscard]] int full_fabric_app() const noexcept {
    return full_fabric_app_;
  }

  [[nodiscard]] const RuntimeCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const UtilizationIntegral& utilization() const noexcept {
    return util_;
  }
  /// The log this runtime appends completions to: its own, or the bound one.
  [[nodiscard]] const std::vector<CompletedApp>& completed() const noexcept {
    return *log_;
  }
  /// Appends completions to `log` (one the cluster shares across its
  /// epochs, or a run's result) instead; bind before the first completion.
  void bind_completion_log(std::vector<CompletedApp>& log) noexcept {
    log_ = &log;
  }

  /// Hook invoked on every app completion (cluster layer: D_switch
  /// recalculation cadence) with a local copy of the record, never a
  /// reference into the log, which the hook's own admissions may grow.
  void set_on_app_complete(std::function<void(const CompletedApp&)> fn) {
    on_app_complete_ = std::move(fn);
  }

  // -------------------------------------------------------- phase accounting
  /// Enables response-time phase decomposition. Call before the first
  /// submit and before bind_metrics — the vs_app_phase_ms instruments are
  /// registered only when accounting is on, so phase-free exports stay
  /// byte-identical. Off (the default), the per-event cost is one branch.
  void enable_phase_accounting() noexcept { phase_acct_ = true; }
  [[nodiscard]] bool phase_accounting() const noexcept { return phase_acct_; }

  // ---------------------------------------------------------- observability
  /// Binds this board's channel of a ClusterTraceHub and resolves the
  /// board's span lanes (one per slot, plus "fabric") in it, which makes the
  /// board a process of the hub's Chrome trace. Spans, causal flow events
  /// and journal records are emitted only while the hub has the matching
  /// stream enabled; unbound (the default) costs one branch per site.
  void bind_observability(obs::TraceChannel& channel);

  // -------------------------------------------------------------- telemetry
  /// Binds the whole board stack — runtime counters/histograms, per-state
  /// slot occupancy gauges, both cores, the PCAP, and the policy — to
  /// `registry`, labelled by board name. Idempotent: rebinding (cluster
  /// epochs reusing a board) resolves the same cells, so counts accumulate.
  /// Without this call every telemetry update is a no-op.
  void bind_metrics(obs::MetricsRegistry& registry);

  // ------------------------------------------------------------- migration
  /// Removes and returns apps that have not started executing (the paper's
  /// "applications and tasks in the ready list"); they migrate to another
  /// board. Their buffers' byte volume is returned for transfer costing.
  struct MigratedApp {
    int spec_index;
    int batch;
    int tenant = -1;  ///< owning tenant, carried to the destination board
    sim::SimTime arrival;
    sim::SimDuration item_interval;  ///< streaming source period (0 = staged)
    std::int64_t state_bytes;
    /// Per-task completed item counts; empty when the app never started.
    std::vector<int> progress;
    /// The progress vector is a DDR checkpoint restore, not live state:
    /// the app re-runs the window since `ckpt_time` (≤ one interval).
    bool from_checkpoint = false;
    sim::SimTime ckpt_time = -1;
    /// Phase account carried to the destination board (all zero when the
    /// origin had no phase accounting).
    std::array<sim::SimDuration, kAppPhaseCount> phase_ns{};
    /// When the origin extracted the app (-1 = fabricated descriptor, e.g.
    /// a held arrival): submit_migrated charges [extracted, now) to the
    /// transit phase so the account still sums to response time.
    sim::SimTime extracted = -1;
    /// Checkpoint chain flow id, so a restore can close the base→delta
    /// causal arrow on the destination board (0 = no chain).
    std::uint64_t ckpt_flow = 0;
  };
  [[nodiscard]] std::vector<MigratedApp> extract_unstarted();

  /// Re-admits a migrated / evacuated / held app, restoring its carried
  /// phase account and charging its time off-board to `transit`
  /// (kMigration for D_switch and pre-copy placements, kRecovery for crash
  /// evacuation, shedding survivors, and reboot readmissions). This is the
  /// one resubmission path. A non-empty `m.progress` holds per-task
  /// completed item counts (monotone non-increasing along the pipeline):
  /// the app arrives marked as started, with its per-task Little units
  /// pre-advanced — fully-done tasks are Finished — so execution resumes
  /// exactly where the origin board paused it.
  int submit_migrated(const apps::AppSpec& spec, const MigratedApp& m,
                      AppPhase transit);

  // ---------------------------------------------------------- checkpointing
  /// Enables periodic DDR snapshots (see runtime/checkpoint.h). Call before
  /// the first submit and before bind_metrics — the checkpoint instruments
  /// are registered only when the policy is active, so checkpoint-free
  /// exports stay byte-identical.
  void enable_checkpoints(const CheckpointPolicy& policy);
  [[nodiscard]] const CheckpointStats& checkpoint_stats() const noexcept {
    return ckpt_stats_;
  }

  // --------------------------------------------------------- dirty tracking
  /// Enables per-app DDR dirty-region maps at `granularity` bytes. Call
  /// before the first submit. Idempotent; when both delta checkpointing
  /// and pre-copy migration ask for tracking, the finer granularity wins.
  /// enable_checkpoints() with an active delta policy calls this itself.
  void enable_dirty_tracking(std::int64_t granularity);
  [[nodiscard]] bool dirty_tracking() const noexcept {
    return dirty_granularity_ > 0;
  }

  // -------------------------------------------------------------- pre-copy
  /// Starts a pre-copy stream: clears every app's streamed flag so the
  /// next take_migration_stream_bytes() ships full footprints again.
  void begin_migration_stream();

  /// One pre-copy round's payload. Only apps that are migratable *right
  /// now* (unstarted, or paused between tasks on the per-task
  /// decomposition) are streamed: a first-time app ships its full
  /// migratable footprint, an already-streamed app only the migration-
  /// plane dirt it accumulated since (writes while it was running).
  /// Running and bundled apps are left untouched — their dirt keeps
  /// accumulating until they pause (or drain on this board).
  [[nodiscard]] std::int64_t take_migration_stream_bytes();

  // ------------------------------------------------------------ fault plane
  /// Board crash result, partitioned three ways: `evacuable` apps were
  /// between items with DDR-resident per-task progress (the recovery policy
  /// live-migrates them, unchanged from a D_switch migration);
  /// `checkpointed` apps — bundled apps and apps caught without committed
  /// per-task progress — carry the expanded progress of their last DDR
  /// checkpoint and restore through submit_migrated's progress packing;
  /// `killed` apps had neither and can only restart from scratch (empty
  /// progress). Without an active CheckpointPolicy, `checkpointed` is
  /// always empty.
  struct CrashReport {
    std::vector<MigratedApp> evacuable;
    std::vector<MigratedApp> checkpointed;
    std::vector<MigratedApp> killed;
  };

  /// Kills this board: every active app is extracted (paused apps as
  /// evacuable, checkpointed apps to their last snapshot, the rest as
  /// killed descriptors), all slots are scrubbed, the cores and PCAP
  /// reset, and the runtime freezes — stale in-flight events (item
  /// finishes, OCM posts, checkpoint ticks) become no-ops. Terminal: a
  /// rebooted board gets a fresh BoardRuntime epoch.
  [[nodiscard]] CrashReport crash();
  [[nodiscard]] bool crashed() const noexcept { return crashed_; }

  /// SEU/ECC upset in `slot_id`: the configured task-logic instance dies.
  /// A unit mid-PR or mid-item is poisoned (the load/item completes with
  /// its result discarded); an idle-configured unit is evicted on the spot.
  /// Either way the unit returns to Pending with its completed items
  /// preserved in DDR, and the slot must be reconfigured before reuse.
  void inject_slot_seu(int slot_id);

  /// Live-migration extraction: unstarted apps plus *paused* started apps —
  /// apps whose units are all between executions (none placed in a slot,
  /// none mid-item) and which still run per-task Little units. Those carry
  /// their per-task progress and intermediate buffers ("tasks in the ready
  /// list, along with their buffers", §III-D). Apps with units currently
  /// configured or executing stay and drain on the origin.
  [[nodiscard]] std::vector<MigratedApp> extract_migratable();

  // -------------------------------------------------------------- scheduling
  /// Requests a scheduling pass. Passes are collapsed: at most one queued at
  /// a time. The pass runs as an op on the scheduler core, then invokes the
  /// policy, then performs ready-item launches.
  void kick();

 private:
  /// Phase an app is in *right now* given its unit states.
  [[nodiscard]] AppPhase classify(const AppRun& a) const noexcept;
  /// Closes the open phase interval at sim now and reclassifies. Call after
  /// every unit-state change; no-op unless phase accounting is on.
  void touch_phase(AppRun& a);
  /// The one MigratedApp builder: closes the app's open phase interval and
  /// describes it for another board — its descriptor and staging headers,
  /// plus with `progress` its per-task item counts and the items queued
  /// between its stages. The caller releases it (extract_live_if).
  [[nodiscard]] MigratedApp extract_app(AppRun& a, bool progress);
  /// The one eviction: releases the unit's slot and returns it to Pending
  /// with its completed items kept in DDR, then touches the phase and the
  /// slot gauges. The caller kicks as its event requires.
  void evict_unit(AppRun& a, UnitRun& u);
  /// Advances a fresh app's units to `items_done` (migration restore).
  void apply_progress(AppRun& a, const std::vector<int>& items_done);
  void run_pass();
  /// Launches every ready idle unit of the marked apps, in ascending id
  /// order, and clears the marks.
  void try_launches();
  /// Marks an app for the next launch scan (see launch_marks()); the scan
  /// skips it if it has left the live set by then.
  void mark_launch(AppRun& a);
  /// One item's pipeline: a launch op on the scheduler core, whose
  /// completion kicks the input DMA and schedules the execution end
  /// (DMA time plus item latency later), which calls finish_item.
  void launch_item(AppRun& app, UnitRun& unit);
  void finish_item(int app_id, int unit_index);
  void finish_unit(AppRun& a, UnitRun& unit);
  void check_app_complete(AppRun& app);
  /// Walks the live index in ascending order and releases every app
  /// `extract` accepts, compacting the index in place around the rest.
  template <typename Extract>
  void extract_live_if(Extract extract);
  /// The live set's one exit after its bookkeeping: frees the app's unit,
  /// checkpoint and dirty-map storage (capacity included) and returns its
  /// slot to the free list. `a` must not be read afterwards; the next
  /// admission may reuse its slot.
  void release_app(AppRun& a);
  /// Counts `a` into (+1) or out of (-1) the live set's sums: its spec's
  /// live count, the slot-less count, and the load, spec bit and batch sum
  /// of the load cell.
  void count_live(const AppRun& a, int delta);
  /// Every unit state change goes through here, keeping used_, the app's
  /// unit masks, the slot-less count and the starvation clock exact.
  void set_unit_state(AppRun& a, UnitRun& u, UnitState state) noexcept;
  /// Occupies an idle slot with a PR load, or frees an occupied one;
  /// either keeps occupied_ and the idle masks exact.
  void begin_slot_reconfig(fpga::Slot& slot, int app_id);
  void release_slot(fpga::Slot& slot);
  /// Every slot state change goes through here: applies `change` to
  /// `slot` and keeps the per-state slot counts, and the gauges of the two
  /// counts it moved, exact.
  template <typename Change, typename... Args>
  void change_slot(fpga::Slot& slot, Change change, Args... args) {
    const auto from = static_cast<std::size_t>(slot.state());
    (slot.*change)(args...);
    const auto to = static_cast<std::size_t>(slot.state());
    m_slot_state_[from].set(--slot_counts_[from]);
    m_slot_state_[to].set(++slot_counts_[to]);
  }
  void mark_idle(const fpga::Slot& slot) noexcept {
    idle_masks_[static_cast<std::size_t>(slot.kind())] |= std::uint64_t{1}
                                                          << slot.id();
  }
  /// Integrates the utilisation since the last touch at the current sums.
  /// Call before every change to used_ or occupied_resources().
  void touch_utilization();
  /// Span lane of `slot`, or of the whole fabric for a negative slot.
  [[nodiscard]] obs::NameId trace_lane(int slot) const noexcept {
    return lanes_[slot < 0 ? lanes_.size() - 1
                           : static_cast<std::size_t>(slot)];
  }
  /// Schedules the next checkpoint tick (no-op when the policy is inactive,
  /// a tick is already pending, or the board crashed).
  void arm_checkpoint();
  /// Snapshots every started app with committed progress, then charges the
  /// total snapshot DMA on the scheduler core. In delta mode only regions
  /// dirtied since the last snapshot are copied (base-plus-delta chain
  /// with compaction every CheckpointPolicy::compact_every deltas).
  void checkpoint_pass();
  /// (Re)initialises an app's dirty map for its current unit layout, all
  /// regions dirty. No-op unless dirty tracking is enabled.
  void init_dirty(AppRun& a);
  /// Marks the DDR writes of one committed item: its staging header and
  /// its output in the next stage's input-buffer slot.
  void mark_item_write(AppRun& a, int unit_index, int item);

  // What the item, pass and launch paths read leads; the checkpoint, trace,
  // completion-log and lane state trails.
  sim::Simulator& sim_;
  fpga::Board& board_;
  SchedulerPolicy& policy_;
  std::vector<AppRun> apps_;  ///< the app slots (see app_slots())
  std::vector<int> slot_of_;  ///< per id: its slot in apps_, -1 once left
  LoadCell* cell_ = &own_cell_;           ///< see bind_load_cell()
  std::vector<int> launch_marks_;         ///< see launch_marks()
  std::uint64_t allocation_changes_ = 0;  ///< see allocation_changes()
  sim::SimTime last_pass_ = 0;  ///< when the last pass ran (wait_since)
  sim::SimTime last_util_touch_ = 0;
  int slotless_apps_ = 0;     ///< see slotless_apps()
  int full_fabric_app_ = -1;  ///< baseline: app owning the whole fabric
  std::int64_t dirty_granularity_ = 0;  ///< 0 = no dirty tracking
  bool dual_core_;
  bool pass_queued_ = false;
  bool crashed_ = false;
  bool phase_acct_ = false;
  bool admission_open_ = true;
  obs::TraceChannel* obs_ = nullptr;
  std::array<std::uint64_t, 2> idle_masks_{};  ///< see idle_mask()
  std::array<int, 4> slot_counts_{};           ///< see slot_count()
  fpga::ResourceVector used_;       ///< see used_resources()
  fpga::ResourceVector occupied_;   ///< non-idle slots' capacity
  UtilizationIntegral util_;
  RuntimeCounters counters_;
  std::vector<int> live_;        ///< live app ids, ascending (see live_ids())
  std::vector<int> free_slots_;  ///< apps_ slots free for the next admission
  std::vector<int> live_per_spec_;  ///< live apps by spec index
  LoadCell own_cell_;               ///< the load state while unbound
  std::function<void(const CompletedApp&)> on_app_complete_;

  // Telemetry handles (null until bind_metrics; updates are then no-ops).
  obs::CounterHandle m_pr_requests_;     ///< vs_runtime_pr_requests_total
  obs::CounterHandle m_pr_blocked_;      ///< vs_runtime_pr_blocked_total
  obs::CounterHandle m_launch_blocked_;  ///< vs_runtime_launch_blocked_total
  obs::CounterHandle m_items_;           ///< vs_runtime_items_total
  obs::CounterHandle m_apps_completed_;  ///< vs_runtime_apps_completed_total
  obs::CounterHandle m_preemptions_;     ///< vs_runtime_preemptions_total
  obs::CounterHandle m_passes_;          ///< vs_runtime_passes_total
  obs::HistogramHandle m_response_ms_;   ///< vs_app_response_ms
  obs::HistogramHandle m_item_ms_;       ///< vs_runtime_item_ms
  /// vs_app_phase_ms{phase=...}, indexed by AppPhase; registered only when
  /// phase accounting is enabled.
  std::array<obs::HistogramHandle, kAppPhaseCount> m_phase_ms_{};
  // Checkpoint instruments (registered only when ckpt_.active(); the
  // delta instruments additionally require ckpt_.delta_active()).
  obs::CounterHandle m_ckpt_snapshots_;  ///< vs_ckpt_snapshots_total
  obs::CounterHandle m_ckpt_bytes_;      ///< vs_ckpt_bytes_total
  obs::CounterHandle m_ckpt_skipped_clean_;  ///< vs_ckpt_skipped_total{clean}
  obs::CounterHandle m_ckpt_skipped_empty_;  ///< vs_ckpt_skipped_total{empty}
  obs::CounterHandle m_ckpt_dirty_bytes_;    ///< vs_ckpt_dirty_bytes_total
  obs::CounterHandle m_ckpt_dirty_regions_;  ///< vs_ckpt_dirty_regions_total
  obs::CounterHandle m_ckpt_deltas_;         ///< vs_ckpt_deltas_total
  obs::CounterHandle m_ckpt_compactions_;    ///< vs_ckpt_compactions_total
  /// vs_slot_state_count{state=...}, indexed by fpga::SlotState.
  std::array<obs::GaugeHandle, 4> m_slot_state_{};

  CheckpointPolicy ckpt_;
  CheckpointStats ckpt_stats_;
  std::vector<int> ckpt_snap_;  ///< checkpoint_pass's per-task progress
  bool ckpt_armed_ = false;
  std::vector<obs::NameId> lanes_;  ///< see trace_lane()
  std::vector<CompletedApp> own_log_;
  std::vector<CompletedApp>* log_ = &own_log_;  ///< see completed()
};

}  // namespace vs::runtime
