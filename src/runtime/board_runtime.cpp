#include "runtime/board_runtime.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/trace_hub.h"
#include "util/log.h"
#include "util/text_arena.h"

namespace vs::runtime {

const char* to_string(AppPhase p) noexcept {
  switch (p) {
    case AppPhase::kQueueWait: return "queue_wait";
    case AppPhase::kReconfig: return "reconfig";
    case AppPhase::kExec: return "exec";
    case AppPhase::kPaused: return "paused";
    case AppPhase::kMigration: return "migration";
    case AppPhase::kRecovery: return "recovery";
  }
  return "unknown";
}

fpga::BitstreamKey unit_bitstream_key(int spec_index,
                                      const apps::UnitSpec& unit,
                                      int slot_id) noexcept {
  return (static_cast<fpga::BitstreamKey>(static_cast<std::uint32_t>(
              spec_index))
          << 32) |
         (static_cast<fpga::BitstreamKey>(
              static_cast<std::uint8_t>(unit.first_task))
          << 24) |
         (static_cast<fpga::BitstreamKey>(
              static_cast<std::uint8_t>(unit.last_task))
          << 16) |
         (static_cast<fpga::BitstreamKey>(
              static_cast<std::uint8_t>(slot_id))
          << 8) |
         static_cast<fpga::BitstreamKey>(static_cast<std::uint8_t>(unit.mode));
}

namespace {

/// Replaces `a`'s units with fresh pending ones copied from `specs`.
void assign_pending_units(AppRun& a, std::span<const apps::UnitSpec> specs) {
  if (specs.size() > AppRun::kMaxUnits) {
    throw std::invalid_argument(std::to_string(specs.size()) +
                                " units in one app; at most 32 are supported");
  }
  a.units.clear();
  a.units.reserve(specs.size());
  for (const apps::UnitSpec& u : specs) a.units.emplace_back().spec = u;
  a.unit_masks = {};
  a.unit_masks[static_cast<std::size_t>(UnitState::kPending)] =
      static_cast<std::uint32_t>((std::uint64_t{1} << a.units.size()) - 1);
  a.in_flight_mask = 0;
}

// An app's DDR image, the one layout every byte count here walks: a
// 4096-byte descriptor, a 16 KiB staging header per batch item, then one
// input area per pipeline stage holding batch slots of the stage's
// item_bytes_in. Item k's header lives at 4096 + k * 16384, stage u's
// input slot k at input_area(a, u) + k * item_bytes_in.
constexpr std::int64_t kDescriptorBytes = 4096;
constexpr std::int64_t kStagingHeaderBytes = 16384;

/// Descriptor plus staging headers: what every migration ships. Bulk input
/// data stays host-fetchable and is re-DMAed on the target board.
std::int64_t header_bytes(const AppRun& a) {
  return kDescriptorBytes +
         static_cast<std::int64_t>(a.batch) * kStagingHeaderBytes;
}

/// Offset of stage `unit`'s input area; the whole image for units.size().
std::int64_t input_area(const AppRun& a, std::size_t unit) {
  std::int64_t off = header_bytes(a);
  for (std::size_t j = 0; j < unit; ++j) {
    off += static_cast<std::int64_t>(a.batch) * a.units[j].spec.item_bytes_in;
  }
  return off;
}

/// What a migration or a base snapshot copies right now: the headers plus,
/// once the app has started, the items queued between its pipeline stages.
std::int64_t live_image_bytes(const AppRun& a) {
  std::int64_t bytes = header_bytes(a);
  if (!a.started) return bytes;
  int upstream_done = a.batch;
  for (const UnitRun& u : a.units) {
    bytes += static_cast<std::int64_t>(upstream_done - u.items_done) *
             u.spec.item_bytes_in;
    upstream_done = u.items_done;
  }
  return bytes;
}

/// Every item_in_flight change goes through here, keeping in_flight_mask.
void set_in_flight(AppRun& a, UnitRun& u, bool in_flight) noexcept {
  const std::uint32_t bit = std::uint32_t{1} << (&u - a.units.data());
  a.in_flight_mask = in_flight ? a.in_flight_mask | bit
                               : a.in_flight_mask & ~bit;
  u.item_in_flight = in_flight;
}

}  // namespace

BoardRuntime::BoardRuntime(fpga::Board& board, SchedulerPolicy& policy)
    : sim_(board.sim()),
      board_(board),
      policy_(policy),
      dual_core_(policy.dual_core()) {
  if (board_.slots().size() > 64) {
    throw std::invalid_argument(board_.name() + " has " +
                                std::to_string(board_.slots().size()) +
                                " slots; at most 64 are supported");
  }
  for (const fpga::Slot& s : board_.slots()) {
    if (s.state() == fpga::SlotState::kIdle) mark_idle(s);
    ++slot_counts_[static_cast<std::size_t>(s.state())];
  }
  policy_.attach(*this);
}

void BoardRuntime::bind_metrics(obs::MetricsRegistry& registry) {
  obs::Labels labels{{"board", board_.name()}};
  m_pr_requests_ = obs::CounterHandle{
      &registry.counter("vs_runtime_pr_requests_total", labels)};
  m_pr_blocked_ = obs::CounterHandle{
      &registry.counter("vs_runtime_pr_blocked_total", labels)};
  m_launch_blocked_ = obs::CounterHandle{
      &registry.counter("vs_runtime_launch_blocked_total", labels)};
  m_items_ =
      obs::CounterHandle{&registry.counter("vs_runtime_items_total", labels)};
  m_apps_completed_ = obs::CounterHandle{
      &registry.counter("vs_runtime_apps_completed_total", labels)};
  m_preemptions_ = obs::CounterHandle{
      &registry.counter("vs_runtime_preemptions_total", labels)};
  m_passes_ = obs::CounterHandle{
      &registry.counter("vs_runtime_passes_total", labels)};
  m_response_ms_ = obs::HistogramHandle{&registry.histogram(
      "vs_app_response_ms", obs::default_ms_bounds(), labels)};
  m_item_ms_ = obs::HistogramHandle{&registry.histogram(
      "vs_runtime_item_ms", obs::default_ms_bounds(), labels)};
  if (phase_acct_) {
    // Registered only when phase accounting is on, so phase-free exports
    // stay byte-identical.
    for (std::size_t p = 0; p < kAppPhaseCount; ++p) {
      obs::Labels phase_labels = labels;
      phase_labels.emplace_back("phase",
                                to_string(static_cast<AppPhase>(p)));
      m_phase_ms_[p] = obs::HistogramHandle{
          &registry.histogram("vs_app_phase_ms", obs::default_ms_bounds(),
                              std::move(phase_labels))};
    }
  }
  if (ckpt_.active()) {
    // Registered only when checkpointing is on, so checkpoint-free exports
    // stay byte-identical.
    m_ckpt_snapshots_ = obs::CounterHandle{
        &registry.counter("vs_ckpt_snapshots_total", labels)};
    m_ckpt_bytes_ =
        obs::CounterHandle{&registry.counter("vs_ckpt_bytes_total", labels)};
    obs::Labels clean = labels, empty = labels;
    clean.emplace_back("reason", "clean");
    empty.emplace_back("reason", "empty");
    m_ckpt_skipped_clean_ = obs::CounterHandle{
        &registry.counter("vs_ckpt_skipped_total", std::move(clean))};
    m_ckpt_skipped_empty_ = obs::CounterHandle{
        &registry.counter("vs_ckpt_skipped_total", std::move(empty))};
  }
  if (ckpt_.delta_active()) {
    m_ckpt_dirty_bytes_ = obs::CounterHandle{
        &registry.counter("vs_ckpt_dirty_bytes_total", labels)};
    m_ckpt_dirty_regions_ = obs::CounterHandle{
        &registry.counter("vs_ckpt_dirty_regions_total", labels)};
    m_ckpt_deltas_ = obs::CounterHandle{
        &registry.counter("vs_ckpt_deltas_total", labels)};
    m_ckpt_compactions_ = obs::CounterHandle{
        &registry.counter("vs_ckpt_compactions_total", labels)};
  }
  for (std::size_t s = 0; s < m_slot_state_.size(); ++s) {
    obs::Labels state_labels = labels;
    state_labels.emplace_back(
        "state", fpga::to_string(static_cast<fpga::SlotState>(s)));
    m_slot_state_[s] = obs::GaugeHandle{
        &registry.gauge("vs_slot_state_count", std::move(state_labels))};
    m_slot_state_[s].set(slot_counts_[s]);
  }
  board_.scheduler_core().bind_metrics(registry);
  board_.pr_core().bind_metrics(registry);
  board_.pcap().bind_metrics(registry, board_.name());
  policy_.bind_metrics(registry, board_.name());
}

AppPhase BoardRuntime::classify(const AppRun& a) const noexcept {
  // Precedence: an app with any item executing is making progress (kExec)
  // even while another unit reconfigures; reconfig next; an app that never
  // issued a PR is still queued; otherwise it is configured-or-preempted
  // and waiting between items.
  if (a.in_flight_mask != 0) return AppPhase::kExec;
  if (a.units_mask(UnitState::kReconfiguring) != 0) return AppPhase::kReconfig;
  if (!a.started) return AppPhase::kQueueWait;
  return AppPhase::kPaused;
}

void BoardRuntime::touch_phase(AppRun& a) {
  if (!phase_acct_) return;
  sim::SimTime now = sim_.now();
  a.phase_ns[static_cast<std::size_t>(a.phase)] += now - a.phase_since;
  a.phase_since = now;
  a.phase = classify(a);
}

void BoardRuntime::bind_observability(obs::TraceChannel& channel) {
  obs_ = &channel;
  lanes_.clear();
  for (const fpga::Slot& s : board_.slots()) {
    lanes_.push_back(channel.lane(s.name()));
  }
  lanes_.push_back(channel.lane("fabric"));
}

int BoardRuntime::submit(const apps::AppSpec& spec, int spec_index, int batch,
                         sim::SimTime arrival, sim::SimDuration item_interval,
                         int tenant) {
  assert(admission_open_ && "board is draining; submit to the active board");
  assert(batch >= 1);
  assert(spec_index >= 0);
  const int id = admitted();
  AppRun fresh;
  fresh.id = id;
  fresh.spec = &spec;
  fresh.spec_index = spec_index;
  fresh.tenant = tenant;
  fresh.arrival = arrival;
  fresh.admitted = sim_.now();
  fresh.batch = batch;
  fresh.item_interval = item_interval;
  assign_pending_units(fresh, apps::make_little_units(spec));
  // The phase chain starts at *arrival*, not admission: any gap between the
  // two (a resubmission, a held arrival) is re-attributed by
  // submit_migrated, and for fresh arrivals the two coincide, so phases
  // always sum to completed - arrival.
  fresh.phase = AppPhase::kQueueWait;
  fresh.phase_since = fresh.arrival;
  fresh.wait_since = fresh.admitted;
  // A free slot if there is one, so the pool grows only to the most apps
  // live at once. Growing it may move every AppRun: no reference into the
  // pool held across a submit survives it.
  if (free_slots_.empty()) {
    slot_of_.push_back(static_cast<int>(apps_.size()));
    apps_.push_back(std::move(fresh));
  } else {
    slot_of_.push_back(free_slots_.back());
    free_slots_.pop_back();
    apps_[static_cast<std::size_t>(slot_of_.back())] = std::move(fresh);
  }
  live_.push_back(id);  // ids only grow, so the index stays ascending
  ++allocation_changes_;
  AppRun& a = app(id);
  count_live(a, +1);
  init_dirty(a);
  if (obs_ && obs_->journal_on()) {
    obs_->journal(sim().now(), obs::JournalEvent::kAdmit, board_.name(), id,
                  spec.name, 0, "batch ", batch);
  }
  policy_.on_app_submitted(*this, id);
  arm_checkpoint();
  kick();
  return id;
}

void BoardRuntime::enable_checkpoints(const CheckpointPolicy& policy) {
  assert(slot_of_.empty() &&
         "enable checkpointing before the first admission");
  ckpt_ = policy;
  if (ckpt_.delta_active()) enable_dirty_tracking(ckpt_.granularity);
}

void BoardRuntime::enable_dirty_tracking(std::int64_t granularity) {
  assert(slot_of_.empty() &&
         "enable dirty tracking before the first admission");
  if (granularity <= 0) return;
  dirty_granularity_ = dirty_granularity_ > 0
                           ? std::min(dirty_granularity_, granularity)
                           : granularity;
}

void BoardRuntime::init_dirty(AppRun& a) {
  if (dirty_granularity_ <= 0) return;
  a.dirty.reset(input_area(a, a.units.size()), dirty_granularity_);
  // A fresh image (admission, re-unitise, restored progress) is all-new to
  // both consumers.
  a.dirty.mark_all();
}

void BoardRuntime::mark_item_write(AppRun& a, int unit_index, int item) {
  if (dirty_granularity_ <= 0) return;
  // The committed item rewrites its staging header ...
  a.dirty.mark(kDescriptorBytes + item * kStagingHeaderBytes,
               kStagingHeaderBytes);
  // ... and lands its output in the next stage's input-buffer slot. The
  // final stage's output DMAs back to the host instead, leaving DDR clean.
  std::size_t next = static_cast<std::size_t>(unit_index) + 1;
  if (next >= a.units.size()) return;
  const std::int64_t slot_bytes = a.units[next].spec.item_bytes_in;
  a.dirty.mark(input_area(a, next) + item * slot_bytes, slot_bytes);
}

namespace {

/// On the per-task decomposition (bundled apps drain on the Big slots they
/// are bound to, §III-C).
bool per_task_units(const AppRun& a) {
  return a.units.size() == static_cast<std::size_t>(a.spec->task_count());
}

/// Migratable right now: unstarted, or paused between tasks — the same
/// test extract_migratable applies before releasing the app. Paused means
/// no unit placed in a slot; an item is only ever in flight in a placed
/// unit (I3).
bool migratable_now(const AppRun& a) {
  return !a.started || (per_task_units(a) && a.units_placed() == 0);
}

}  // namespace

void BoardRuntime::begin_migration_stream() {
  for (int id : live_) app(id).precopy_streamed = false;
}

std::int64_t BoardRuntime::take_migration_stream_bytes() {
  if (dirty_granularity_ <= 0) return 0;
  std::int64_t bytes = 0;
  for (int id : live_) {
    AppRun& a = app(id);
    // Running apps keep dirtying their image until they pause — or drain
    // here, in which case their dirt was never anybody's payload. Bundled
    // apps never migrate at all.
    if (!migratable_now(a)) continue;
    if (!a.precopy_streamed) {
      // First time this app is pause-visible during the stream: ship its
      // whole migratable footprint and start tracking dirt from here.
      a.precopy_streamed = true;
      (void)a.dirty.take(DirtyMap::kMigration);
      bytes += live_image_bytes(a);
    } else {
      // Already streamed: only what it wrote since (it ran in between).
      bytes += a.dirty.take(DirtyMap::kMigration).bytes;
    }
  }
  return bytes;
}

void BoardRuntime::arm_checkpoint() {
  if (!ckpt_.active() || ckpt_armed_ || crashed_) return;
  ckpt_armed_ = true;
  sim().schedule(ckpt_.interval, [this] {
    ckpt_armed_ = false;
    if (crashed_) return;
    checkpoint_pass();
    // Re-arm only while apps are active: a drained board goes dormant (and
    // never ping-pongs with the telemetry Sampler's idle check); the next
    // submit re-arms the chain.
    if (active_apps() > 0) arm_checkpoint();
  });
}

void BoardRuntime::checkpoint_pass() {
  std::int64_t pass_full_bytes = 0;
  std::int64_t pass_delta_bytes = 0;
  const bool delta_mode = ckpt_.delta_active() && dirty_granularity_ > 0;
  std::vector<int>& snap = ckpt_snap_;
  for (int id : live_) {
    AppRun& a = app(id);
    if (!a.started) continue;
    // Expand to per-task progress: a bundle's items_done means that many
    // items passed through every task in its range, so each covered task
    // inherits the bundle count. Pipeline item-readiness keeps items_done
    // non-increasing across units, so the expansion stays monotone and
    // restores cleanly through submit_migrated.
    snap.clear();
    bool any = false;
    for (const UnitRun& u : a.units) {
      for (int t = 0; t < u.spec.task_count(); ++t) {
        snap.push_back(u.items_done);
      }
      any |= u.items_done > 0;
    }
    if (!any) {
      // Started but nothing committed: a snapshot restores nothing and
      // there is no restore point to refresh either — distinct from the
      // clean skip below, where a valid snapshot already covers "now".
      ++ckpt_stats_.skipped_empty;
      m_ckpt_skipped_empty_.add();
      continue;
    }
    if (a.ckpt_time >= 0 && snap == a.ckpt_progress) {
      // Unchanged since the last snapshot: skip the copy but refresh the
      // timestamp — the restore point still reflects "now", keeping the
      // re-run window bounded by one interval.
      a.ckpt_time = sim().now();
      ++ckpt_stats_.skipped_clean;
      m_ckpt_skipped_clean_.add();
      continue;
    }
    // Full-image footprint at this progress, the same one a live migration
    // ships over the Aurora link. A base snapshot copies exactly this; a
    // crash evacuation ships it too, even mid-chain — the rescuer reads
    // each surviving region once, and the union of base + delta regions is
    // the current image.
    const std::int64_t image = live_image_bytes(a);
    std::int64_t bytes;
    bool is_delta = false;
    if (delta_mode && a.ckpt_time >= 0 && a.ckpt_chain < ckpt_.compact_every) {
      is_delta = true;
      // Delta snapshot: copy only the regions written since the last pass,
      // chained onto the current base.
      DirtyMap::Drain d = a.dirty.take(DirtyMap::kCheckpoint);
      bytes = kCkptDeltaHeaderBytes + d.bytes;
      ++a.ckpt_chain;
      pass_delta_bytes += bytes;
      ++ckpt_stats_.deltas;
      ckpt_stats_.delta_bytes += bytes;
      ckpt_stats_.dirty_regions += d.regions;
      m_ckpt_dirty_bytes_.add(d.bytes);
      m_ckpt_dirty_regions_.add(d.regions);
      m_ckpt_deltas_.add();
    } else {
      // Base snapshot: whole-state mode, an app's first snapshot, or a
      // chain that hit compact_every (compaction rewrites a full base so
      // the restore chain stays bounded).
      bytes = image;
      if (delta_mode) {
        if (a.ckpt_time >= 0) {
          ++ckpt_stats_.compactions;
          m_ckpt_compactions_.add();
        }
        // The base covers every outstanding write: start the next delta
        // from a clean checkpoint plane.
        (void)a.dirty.take(DirtyMap::kCheckpoint);
      }
      a.ckpt_chain = 0;
      pass_full_bytes += bytes;
      ++ckpt_stats_.bases;
      ckpt_stats_.base_bytes += bytes;
    }
    a.ckpt_bytes = image;
    a.ckpt_progress = snap;
    a.ckpt_time = sim().now();
    ++counters_.ckpt_snapshots;
    counters_.ckpt_bytes += bytes;
    m_ckpt_snapshots_.add();
    m_ckpt_bytes_.add(bytes);
    if (obs_ && obs_->trace_on()) {
      // Causal chain base → delta* → restore: the first base starts the
      // flow, every later snapshot (delta or compaction) is a step; a
      // crash restore on another board closes it.
      if (a.ckpt_flow == 0) {
        a.ckpt_flow = obs_->new_flow_id();
        obs_->flow(a.ckpt_flow, obs::FlowPhase::kStart, sim().now(),
                   board_.name(), "ckpt", "ckpt ", a.spec->name, '#', a.id);
      } else {
        obs_->flow(a.ckpt_flow, obs::FlowPhase::kStep, sim().now(),
                   board_.name(), "ckpt", is_delta ? "ckpt delta" : "ckpt base");
      }
    }
    if (obs_ && obs_->journal_on()) {
      obs_->journal(sim().now(), obs::JournalEvent::kCheckpoint,
                    board_.name(), a.id, a.spec->name, a.ckpt_flow,
                    is_delta ? "delta " : "base ", bytes, " B");
    }
  }
  // Charge the DDR-to-DDR copies on the scheduler core: launches and
  // passes queue behind them, so the checkpoint cost is visible in
  // response times. Base and delta copies price differently.
  sim::SimDuration cost = 0;
  if (pass_full_bytes > 0) {
    cost += board_.params().ckpt_snapshot_time(pass_full_bytes);
  }
  if (pass_delta_bytes > 0) {
    cost += board_.params().ckpt_delta_time(pass_delta_bytes);
  }
  if (cost > 0) {
    board_.scheduler_core().submit(cost, [] {}, sim::OpKind::kCkpt);
  }
}

void BoardRuntime::set_units(int app_id,
                             std::span<const apps::UnitSpec> units) {
  AppRun& a = app(app_id);
  assert(!a.started && "cannot re-unitise an app that has begun execution");
  assert(!units.empty());
  const bool was_slotless = a.slotless();
  assign_pending_units(a, units);
  slotless_apps_ += static_cast<int>(a.slotless()) -
                    static_cast<int>(was_slotless);
  ++allocation_changes_;
  // Re-unitising reshapes the DDR image: rebuild the dirty map for the new
  // layout (everything is new to both consumers again).
  init_dirty(a);
}

void BoardRuntime::idle_slots(fpga::SlotKind kind,
                              std::vector<int>& out) const {
  out.clear();
  for (std::uint64_t idle = idle_mask(kind); idle != 0; idle &= idle - 1) {
    out.push_back(std::countr_zero(idle));
  }
}

int BoardRuntime::take_slot(int app_id, int unit_index,
                            std::vector<int>& idle) const {
  assert(!idle.empty());
  const AppRun& a = app(app_id);
  const UnitRun& u = a.units[static_cast<std::size_t>(unit_index)];
  auto it = std::ranges::find_if(idle, [&](int slot_id) {
    return board_.sdcard().cached(
        unit_bitstream_key(a.spec_index, u.spec, slot_id));
  });
  if (it == idle.end()) it = idle.begin();
  const int slot = *it;
  idle.erase(it);
  return slot;
}

bool BoardRuntime::item_ready(const AppRun& app, int unit_index) const {
  const UnitRun& u = app.units[static_cast<std::size_t>(unit_index)];
  if (u.items_done >= app.batch) return false;
  if (unit_index == 0) {
    // Streaming sources gate the first stage on item availability.
    return u.items_done < app.items_available(sim_now());
  }
  const UnitRun& up = app.units[static_cast<std::size_t>(unit_index - 1)];
  return up.items_done > u.items_done;
}

void BoardRuntime::request_pr(int app_id, int unit_index, int slot_id) {
  AppRun& a = app(app_id);
  UnitRun& u = a.units[static_cast<std::size_t>(unit_index)];
  fpga::Slot& slot = board_.slot(slot_id);
  assert(u.state == UnitState::kPending && "unit must be pending to PR");
  assert(slot.state() == fpga::SlotState::kIdle && "slot must be idle");
  assert(slot.kind() == u.spec.slot_kind && "slot kind mismatch");
  assert(slot.capacity().fits(u.spec.impl_usage) &&
         "unit does not fit the slot at implementation");

  touch_utilization();
  begin_slot_reconfig(slot, app_id);
  set_unit_state(a, u, UnitState::kReconfiguring);
  u.slot = slot_id;
  u.pr_was_blocked = false;
  a.started = true;
  touch_phase(a);
  ++counters_.pr_requests;
  ++cell_->prs;
  m_pr_requests_.add();
  if (obs_ && obs_->journal_on()) {
    obs_->journal(sim().now(), obs::JournalEvent::kBind, board_.name(),
                  app_id, a.spec->name, 0, "unit ", unit_index, " slot ",
                  slot_id);
  }

  const fpga::BoardParams& p = board_.params();
  // The bare-metal PR flow runs entirely on the issuing core: read the
  // partial bitstream from the SD card into DDR (skipped when a previous
  // load of this placement-specific bitstream left it resident), then push
  // it through the PCAP. Both halves hold the core — this is precisely why
  // the single-core designs block launches for the whole duration, and why
  // VersaSlot moves the flow to a dedicated PR-server core.
  fpga::BitstreamKey key = unit_bitstream_key(a.spec_index, u.spec, slot_id);
  // Content key: the same task/bundle logic independent of the target slot
  // (slot byte canonicalised), enabling in-DDR bitstream relocation.
  fpga::BitstreamKey content_key =
      unit_bitstream_key(a.spec_index, u.spec, 0xFF);
  sim::SimDuration duration =
      board_.sdcard().fetch_time(key, content_key, u.spec.bitstream_bytes) +
      p.pcap_load_time(u.spec.bitstream_bytes);
  sim::Core& core = dual_core_ ? board_.pr_core() : board_.scheduler_core();
  sim::SimTime requested = sim().now();

  board_.pcap().request(
      duration, core,
      [this, app_id, unit_index, requested]() {
        if (crashed_) return;
        AppRun& a2 = app(app_id);
        UnitRun& u2 = a2.units[static_cast<std::size_t>(unit_index)];
        touch_utilization();
        change_slot(board_.slot(u2.slot), &fpga::Slot::finish_reconfig);
        if (u2.seu_poisoned) {
          // An SEU hit the region mid-load: the configured logic is dead on
          // arrival. Release the slot and retry the unit from Pending.
          u2.seu_poisoned = false;
          evict_unit(a2, u2);
          board_.ocm().post([this] { kick(); });
          return;
        }
        set_unit_state(a2, u2, UnitState::kRunning);
        touch_phase(a2);
        mark_launch(a2);
        if (obs_ && obs_->trace_on()) {
          obs_->span(requested, sim().now(), trace_lane(u2.slot),
                     obs::SpanKind::kReconfig, a2.spec->name, '#', app_id,
                     ".u", unit_index, " PR");
        }
        // The PR server notifies the scheduler through the OCM mailbox.
        board_.ocm().post([this] { kick(); });
      },
      [this, app_id, unit_index]() {
        UnitRun& blocked_unit =
            app(app_id).units[static_cast<std::size_t>(unit_index)];
        if (blocked_unit.pr_was_blocked) return;
        blocked_unit.pr_was_blocked = true;
        ++counters_.pr_blocked;
        ++cell_->blocked;
        m_pr_blocked_.add();
      },
      u.spec.bitstream_bytes);
}

void BoardRuntime::request_full_reconfig(int app_id) {
  AppRun& a = app(app_id);
  assert(full_fabric_app_ == -1 && "fabric already owned");
  assert(occupied_ == fpga::ResourceVector{} &&
         "full reconfig requires an empty fabric");
  touch_utilization();
  full_fabric_app_ = app_id;
  a.started = true;
  ++counters_.pr_requests;
  ++cell_->prs;
  m_pr_requests_.add();
  for (UnitRun& u : a.units) {
    set_unit_state(a, u, UnitState::kReconfiguring);
    u.slot = -2;
  }
  touch_phase(a);
  const fpga::BoardParams& p = board_.params();
  fpga::BitstreamKey key =
      unit_bitstream_key(a.spec_index, a.units.front().spec, 0) |
      (1ULL << 63);
  sim::SimDuration duration = board_.sdcard().fetch_time(
                                  key, p.full_bitstream_bytes) +
                              p.pcap_load_time(p.full_bitstream_bytes) +
                              p.full_reconfig_restart;
  sim::SimTime requested = sim().now();
  board_.pcap().request(
      duration, board_.scheduler_core(),
      [this, app_id, requested]() {
        AppRun& a2 = app(app_id);
        touch_utilization();
        for (UnitRun& u : a2.units) {
          set_unit_state(a2, u, UnitState::kRunning);
        }
        touch_phase(a2);
        mark_launch(a2);
        if (obs_ && obs_->trace_on()) {
          obs_->span(requested, sim().now(), trace_lane(-1),
                     obs::SpanKind::kReconfig, a2.spec->name, '#', app_id,
                     " full");
        }
        kick();
      },
      nullptr, p.full_bitstream_bytes);
}

void BoardRuntime::preempt_unit(int app_id, int unit_index) {
  AppRun& a = app(app_id);
  UnitRun& u = a.units[static_cast<std::size_t>(unit_index)];
  assert(u.state == UnitState::kRunning && !u.item_in_flight &&
         "preemption only at item boundaries");
  assert(u.slot >= 0);
  evict_unit(a, u);
  ++counters_.preemptions;
  m_preemptions_.add();
  if (obs_ && obs_->journal_on()) {
    obs_->journal(sim().now(), obs::JournalEvent::kPreempt, board_.name(),
                  app_id, a.spec->name, 0, "unit ", unit_index);
  }
}

void BoardRuntime::evict_unit(AppRun& a, UnitRun& u) {
  touch_utilization();
  if (u.slot >= 0) release_slot(board_.slot(u.slot));
  set_unit_state(a, u, UnitState::kPending);
  u.slot = -1;
  touch_phase(a);
}

void BoardRuntime::apply_progress(AppRun& a,
                                  const std::vector<int>& items_done) {
  assert(items_done.size() == a.units.size() &&
         "progress vector must cover every task");
  int upstream = a.batch;
  for (std::size_t i = 0; i < items_done.size(); ++i) {
    int done = items_done[i];
    assert(done >= 0 && done <= a.batch && done <= upstream &&
           "progress must be monotone non-increasing along the pipeline");
    upstream = done;
    UnitRun& u = a.units[i];
    u.items_done = done;
    if (done >= a.batch) set_unit_state(a, u, UnitState::kFinished);
  }
  // Mark started so policies neither re-unitise nor rebind the app: its
  // per-task progress pins the Little decomposition.
  a.started = true;
}

int BoardRuntime::submit_migrated(const apps::AppSpec& spec,
                                  const MigratedApp& m, AppPhase transit) {
  int id =
      submit(spec, m.spec_index, m.batch, m.arrival, m.item_interval, m.tenant);
  AppRun& a = app(id);
  if (!m.progress.empty()) apply_progress(a, m.progress);
  if (phase_acct_) {
    // Restore the carried account and charge the off-board interval to the
    // transit phase — from extraction when the origin recorded one, from
    // arrival for fabricated descriptors (held arrivals never admitted
    // anywhere). Restored *before* check_app_complete so an app that
    // arrives finished closes against the true account.
    a.phase_ns = m.phase_ns;
    sim::SimTime from = m.extracted >= 0 ? m.extracted : a.arrival;
    a.phase_ns[static_cast<std::size_t>(transit)] += sim().now() - from;
    a.phase_since = sim().now();
    a.phase = classify(a);
  }
  if (m.ckpt_flow != 0 && obs_ && obs_->trace_on()) {
    obs_->flow(m.ckpt_flow, obs::FlowPhase::kEnd, sim().now(), board_.name(),
               "ckpt", "restore ", spec.name, '#', id);
  }
  if (obs_ && obs_->journal_on()) {
    obs_->journal(sim().now(), obs::JournalEvent::kRestore, board_.name(),
                  id, spec.name, m.ckpt_flow,
                  m.from_checkpoint
                      ? "from checkpoint"
                      : (m.progress.empty() ? "descriptor" : "live progress"));
  }
  check_app_complete(a);
  kick();
  return id;
}

BoardRuntime::MigratedApp BoardRuntime::extract_app(AppRun& a,
                                                     bool progress) {
  touch_phase(a);
  MigratedApp m;
  m.spec_index = a.spec_index;
  m.batch = a.batch;
  m.arrival = a.arrival;
  m.item_interval = a.item_interval;
  m.tenant = a.tenant;
  m.state_bytes = progress ? live_image_bytes(a) : header_bytes(a);
  if (progress) {
    for (const UnitRun& u : a.units) m.progress.push_back(u.items_done);
  }
  m.phase_ns = a.phase_ns;
  m.extracted = sim().now();
  m.ckpt_flow = a.ckpt_flow;
  return m;
}

template <typename Extract>
void BoardRuntime::extract_live_if(Extract extract) {
  std::size_t kept = 0;
  for (int id : live_) {
    AppRun& a = app(id);
    if (extract(a)) {
      // A crash extracts apps mid-run: their running units stop counting.
      for (const UnitRun& u : a.units) {
        if (u.state == UnitState::kRunning) used_ -= u.spec.impl_usage;
      }
      ++counters_.apps_extracted;
      count_live(a, -1);
      release_app(a);
    } else {
      live_[kept++] = id;  // kept <= the read position: order is preserved
    }
  }
  if (kept < live_.size()) ++allocation_changes_;
  live_.resize(kept);
}

std::vector<BoardRuntime::MigratedApp> BoardRuntime::extract_unstarted() {
  std::vector<MigratedApp> out;
  extract_live_if([&](AppRun& a) {
    if (a.started) return false;
    out.push_back(extract_app(a, /*progress=*/false));
    return true;
  });
  return out;
}

std::vector<BoardRuntime::MigratedApp> BoardRuntime::extract_migratable() {
  std::vector<MigratedApp> out = extract_unstarted();
  extract_live_if([&](AppRun& a) {
    // Paused: nothing placed, and still on the per-task decomposition (one
    // unit per task — bundled apps complete on the Big slots they are
    // bound to, per §III-C).
    if (!migratable_now(a)) return false;
    out.push_back(extract_app(a, /*progress=*/true));
    return true;
  });
  return out;
}

BoardRuntime::CrashReport BoardRuntime::crash() {
  assert(!crashed_ && "board already crashed");
  CrashReport report;
  touch_utilization();
  stop_admission();
  // The crash model is a PL wedge: the fabric (and anything mid-flight in
  // it) is gone, but the PS side — DDR images, completed-item progress,
  // inter-stage buffers — stays readable, which is what makes recovery
  // via the §III-D migration path possible at all. Paused apps evacuate
  // exactly as they would for a switch.
  report.evacuable = extract_migratable();
  // Running apps lose the in-flight item (its result was still in the
  // fabric) but keep their DDR-resident progress, provided they are still
  // on the per-task decomposition. Bundled apps are bound to the Big
  // slots they died on (§III-C) and carry no portable *live* progress —
  // but when checkpointing is on, their last DDR snapshot restores them
  // through submit_migrated's progress packing, re-running at most one
  // checkpoint interval. Only apps with neither live progress nor a
  // snapshot are truly lost: killed descriptors restart from scratch.
  extract_live_if([&](AppRun& a) {
    const bool live_progress =
        per_task_units(a) && std::ranges::any_of(a.units, [](const UnitRun& u) {
          return u.items_done > 0;
        });
    MigratedApp m = extract_app(a, live_progress);
    if (live_progress) {
      report.evacuable.push_back(std::move(m));
    } else if (a.ckpt_time >= 0) {
      m.progress = std::move(a.ckpt_progress);
      m.state_bytes = a.ckpt_bytes;
      m.from_checkpoint = true;
      m.ckpt_time = a.ckpt_time;
      report.checkpointed.push_back(std::move(m));
    } else {
      report.killed.push_back(std::move(m));
    }
    return true;  // every app still live is extracted by the crash
  });
  crashed_ = true;
  pass_queued_ = false;
  for (fpga::Slot& s : board_.slots()) {
    change_slot(s, &fpga::Slot::scrub);
    mark_idle(s);
  }
  occupied_ = {};
  // Cores drop their queues and in-flight ops (this also cancels the core
  // op that would have completed the PCAP's in-flight load), then the PCAP
  // clears its FIFO. Stale simulator events (item finishes, OCM posts,
  // checkpoint ticks) hit the crashed_ guards and die.
  board_.scheduler_core().reset();
  board_.pr_core().reset();
  board_.pcap().reset();
  VS_WARN << board_.name() << ": crashed (" << report.evacuable.size()
          << " evacuable, " << report.checkpointed.size()
          << " checkpoint-restored, " << report.killed.size() << " killed)";
  return report;
}

void BoardRuntime::inject_slot_seu(int slot_id) {
  if (crashed_) return;
  if (full_fabric_app_ >= 0) return;  // exclusive baseline: out of scope
  fpga::Slot& slot = board_.slot(slot_id);
  if (slot.state() == fpga::SlotState::kIdle) return;  // empty region
  const int app_id = slot.occupant_app();
  if (!live(app_id)) return;
  AppRun& a = app(app_id);
  UnitRun* unit = nullptr;
  for (UnitRun& u : a.units) {
    if (u.slot == slot_id && u.state != UnitState::kFinished) {
      unit = &u;
      break;
    }
  }
  if (unit == nullptr) return;
  VS_WARN << board_.name() << ": SEU kills " << a.spec->name << "#" << app_id
          << " in slot " << slot_id;
  if (unit->state == UnitState::kReconfiguring || unit->item_in_flight) {
    // Mid-PR or mid-item: the in-flight operation completes mechanically
    // (PCAP transfer / datapath drain) and its result is discarded there.
    unit->seu_poisoned = true;
    return;
  }
  assert(unit->state == UnitState::kRunning);
  evict_unit(a, *unit);  // configured and between items: on the spot
  kick();
}

void BoardRuntime::kick() {
  if (crashed_) return;
  if (pass_queued_) return;
  pass_queued_ = true;
  sim::Core& core = board_.scheduler_core();
  // Single-core designs: if the scheduler core is currently suspended by a
  // PCAP load, this pass (and the launches it would perform) is blocked —
  // the paper's task-execution-blocking problem.
  if (!dual_core_ && core.busy() && core.current_kind() == sim::OpKind::kPcap) {
    ++counters_.launch_blocked;
    ++cell_->blocked;
    m_launch_blocked_.add();
  }
  auto pass = [this] { run_pass(); };
  // Wrapped for the core, the pass still stores inline: it fires in its
  // completion event, and a heap fallback would allocate once per pass.
  static_assert(sim::Core::fires_in_place<decltype(pass)>());
  core.submit(board_.params().sched_pass_cost, std::move(pass),
              sim::OpKind::kPass);
}

void BoardRuntime::run_pass() {
  if (crashed_) return;
  pass_queued_ = false;
  last_pass_ = sim().now();
  ++counters_.passes;
  m_passes_.add();
  policy_.on_pass(*this);
  try_launches();
}

void BoardRuntime::mark_launch(AppRun& a) {
  if (a.launch_marked) return;
  a.launch_marked = true;
  launch_marks_.push_back(a.id);
}

void BoardRuntime::try_launches() {
  // Ascending ids: the order a walk of the live index launches in. An
  // unmarked app has launched every ready idle unit since its last mark,
  // and a streamed first stage that was not ready has its kick armed.
  std::sort(launch_marks_.begin(), launch_marks_.end());
  for (int id : launch_marks_) {
    // An app that left the live set since its mark is skipped; its slot
    // may hold another app by now, whose own flag is not this mark's.
    if (!live(id)) continue;
    AppRun& a = app(id);
    a.launch_marked = false;
    // A launch changes only its own unit's bit, so this walks exactly the
    // units a unit-by-unit scan would, in the same order.
    for (std::uint32_t idle = a.idle_units(); idle != 0; idle &= idle - 1) {
      const int idx = std::countr_zero(idle);
      UnitRun& u = a.units[static_cast<std::size_t>(idx)];
      if (u.items_done >= a.batch) continue;
      if (!item_ready(a, idx)) {
        // A streamed first stage blocked only on source availability needs
        // a wake-up at the next item's arrival (nothing else would kick).
        if (idx == 0 && a.item_interval > 0) {
          sim::SimTime next =
              a.arrival + a.item_interval *
                              static_cast<sim::SimDuration>(u.items_done);
          if (next > sim().now() &&
              (a.stream_kick < 0 || a.stream_kick < sim().now())) {
            a.stream_kick = next;
            int app_id = a.id;
            sim().schedule_at(next, [this, app_id] {
              // The app may have left the live set since (a migration or a
              // crash took it); the pass is a core op either way.
              if (live(app_id)) {
                AppRun& woken = app(app_id);
                woken.stream_kick = -1;
                mark_launch(woken);
              }
              kick();
            });
          }
        }
        continue;
      }
      launch_item(a, u);
    }
  }
  launch_marks_.clear();
}

void BoardRuntime::launch_item(AppRun& app_ref, UnitRun& unit_ref) {
  set_in_flight(app_ref, unit_ref, true);
  touch_phase(app_ref);
  int app_id = app_ref.id;
  int unit_index = static_cast<int>(&unit_ref - app_ref.units.data());
  int item = unit_ref.items_done;
  // Launch: a scheduler-core op (buffer setup, DMA kick), then the input
  // DMA, then execution in the slot. Nothing reads the instant the input
  // lands, so one event at the execution's end covers both, and the slot
  // is executing from the kick. An SEU or a crash in the DMA window
  // reaches that event through seu_poisoned and the crashed_ guard.
  auto launched = [this, app_id, unit_index, item] {
    AppRun& a = app(app_id);
    UnitRun& u = a.units[static_cast<std::size_t>(unit_index)];
    touch_utilization();
    if (u.slot >= 0) {
      change_slot(board_.slot(u.slot), &fpga::Slot::begin_exec);
    }
    const sim::SimTime started =
        sim().now() + board_.params().dma_time(u.spec.item_bytes_in);
    const sim::SimDuration d =
        u.spec.item_latency + (item == 0 ? u.spec.fill_latency : 0);
    sim().schedule_at(started + d, [this, app_id, unit_index, started, item] {
      if (crashed_) return;
      if (obs_ && obs_->trace_on()) {
        AppRun& a2 = app(app_id);
        UnitRun& u2 = a2.units[static_cast<std::size_t>(unit_index)];
        obs_->span(started, sim().now(), trace_lane(u2.slot),
                   obs::SpanKind::kExec, a2.spec->name, '#', app_id, ".u",
                   unit_index, " B", item + 1);
      }
      m_item_ms_.observe(sim::to_ms(sim().now() - started));
      finish_item(app_id, unit_index);
    });
  };
  // As for the pass in kick(): the launch fires in its completion event,
  // and a heap fallback would allocate once per item.
  static_assert(sim::Core::fires_in_place<decltype(launched)>());
  board_.scheduler_core().submit(board_.params().launch_op_cost,
                                 std::move(launched), sim::OpKind::kLaunch);
}

void BoardRuntime::finish_item(int app_id, int unit_index) {
  if (crashed_) return;
  AppRun& a = app(app_id);
  UnitRun& u = a.units[static_cast<std::size_t>(unit_index)];
  touch_utilization();
  if (u.slot >= 0) change_slot(board_.slot(u.slot), &fpga::Slot::finish_exec);
  set_in_flight(a, u, false);
  if (u.seu_poisoned) {
    // An SEU killed the slot logic mid-item: the item's result is garbage
    // and is discarded (not counted), the instance is evicted, and the
    // unit retries from Pending with its earlier items intact in DDR.
    u.seu_poisoned = false;
    evict_unit(a, u);
    kick();
    return;
  }
  ++u.items_done;
  mark_item_write(a, unit_index, u.items_done - 1);
  ++counters_.items_executed;
  m_items_.add();
  if (u.items_done >= a.batch) finish_unit(a, u);
  touch_phase(a);
  // Marked before completion: the completion hook may admit apps here,
  // which can move `a`.
  mark_launch(a);
  check_app_complete(a);
  kick();
}

void BoardRuntime::finish_unit(AppRun& a, UnitRun& unit) {
  touch_utilization();
  set_unit_state(a, unit, UnitState::kFinished);
  if (unit.slot >= 0) release_slot(board_.slot(unit.slot));
  unit.slot = -1;
}

void BoardRuntime::check_app_complete(AppRun& a) {
  if (a.units_unfinished() > 0) return;
  const sim::SimTime now = sim_.now();
  if (phase_acct_) {
    // Close the open interval against the current phase; after this the
    // account sums exactly (in integer nanoseconds) to completed - arrival.
    a.phase_ns[static_cast<std::size_t>(a.phase)] += now - a.phase_since;
    a.phase_since = now;
    for (std::size_t p = 0; p < kAppPhaseCount; ++p) {
      m_phase_ms_[p].observe(sim::to_ms(a.phase_ns[p]));
    }
  }
  auto live = std::lower_bound(live_.begin(), live_.end(), a.id);
  assert(live != live_.end() && *live == a.id && "completing a non-live app");
  live_.erase(live);
  ++allocation_changes_;
  count_live(a, -1);
  ++counters_.apps_completed;
  m_apps_completed_.add();
  m_response_ms_.observe(sim::to_ms(now - a.arrival));
  if (full_fabric_app_ == a.id) {
    touch_utilization();
    full_fabric_app_ = -1;
  }
  CompletedApp c{a.id, a.spec_index, a.arrival, now};
  c.phase_ns = a.phase_ns;
  c.tenant = a.tenant;
  log_->push_back(c);
  VS_DEBUG << board_.name() << ": " << a.spec->name << "#" << a.id
           << " complete, response " << c.response_ms() << " ms";
  if (obs_ && obs_->journal_on()) {
    obs_->journal(now, obs::JournalEvent::kComplete, board_.name(), a.id,
                  a.spec->name, 0, "response_ms ",
                  util::Fixed{c.response_ms()});
  }
  // Released before the hook, which may admit apps here into its slot.
  release_app(a);
  if (on_app_complete_) on_app_complete_(c);
}

void BoardRuntime::release_app(AppRun& a) {
  const auto id = static_cast<std::size_t>(a.id);
  free_slots_.push_back(slot_of_[id]);
  slot_of_[id] = -1;
  // Swapped with empty containers rather than cleared, so their capacity
  // goes too: a late reader then shows under AddressSanitizer as a
  // heap-use-after-free, not as a stale value.
  std::vector<UnitRun>().swap(a.units);
  std::vector<int>().swap(a.ckpt_progress);
  a.dirty = DirtyMap{};
}

void BoardRuntime::bind_load_cell(LoadCell* cell) noexcept {
  LoadCell* target = cell != nullptr ? cell : &own_cell_;
  *target = *cell_;
  cell_ = target;
}

void BoardRuntime::count_live(const AppRun& a, int delta) {
  auto s = static_cast<std::size_t>(a.spec_index);
  if (s >= live_per_spec_.size()) live_per_spec_.resize(s + 1, 0);
  const bool live = (live_per_spec_[s] += delta) > 0;
  if (a.slotless()) slotless_apps_ += delta;
  cell_->load += delta;
  cell_->batch += delta * a.batch;
  if (a.spec_index < LoadCell::kSpecBits) {
    const std::uint64_t bit = std::uint64_t{1} << s;
    cell_->specs = live ? cell_->specs | bit : cell_->specs & ~bit;
  }
}

void BoardRuntime::set_unit_state(AppRun& a, UnitRun& u,
                                  UnitState state) noexcept {
  if (u.state == UnitState::kRunning) used_ -= u.spec.impl_usage;
  if (state == UnitState::kRunning) used_ += u.spec.impl_usage;
  const bool was_slotless = a.slotless();
  // A PR completion keeps the unit placed, and nothing allocation or
  // placement reads tells reconfiguring from running.
  if (u.state != UnitState::kReconfiguring || state != UnitState::kRunning) {
    ++allocation_changes_;
  }
  const std::uint32_t bit = std::uint32_t{1} << (&u - a.units.data());
  a.unit_masks[static_cast<std::size_t>(u.state)] &= ~bit;
  a.unit_masks[static_cast<std::size_t>(state)] |= bit;
  u.state = state;
  if (a.slotless() == was_slotless) return;
  if (was_slotless) {
    --slotless_apps_;
    return;
  }
  // Only events between passes make an app slot-less (a pass only places,
  // and a preemption victim keeps a slot), so the last pass still saw it
  // holding a slot or with nothing pending: its clock restarts there.
  ++slotless_apps_;
  a.wait_since = last_pass_;
}

void BoardRuntime::begin_slot_reconfig(fpga::Slot& slot, int app_id) {
  ++allocation_changes_;
  if (slot.state() == fpga::SlotState::kIdle) occupied_ += slot.capacity();
  idle_masks_[static_cast<std::size_t>(slot.kind())] &=
      ~(std::uint64_t{1} << slot.id());
  change_slot(slot, &fpga::Slot::begin_reconfig, app_id);
}

void BoardRuntime::release_slot(fpga::Slot& slot) {
  ++allocation_changes_;
  if (slot.state() != fpga::SlotState::kIdle) occupied_ -= slot.capacity();
  mark_idle(slot);
  change_slot(slot, &fpga::Slot::release);
}

void BoardRuntime::touch_utilization() {
  sim::SimTime now = sim().now();
  auto dt = static_cast<double>(now - last_util_touch_);
  last_util_touch_ = now;
  if (dt <= 0) return;

  // The sums are integers kept exact at every transition, so integrating
  // them gives the same doubles as recounting units and slots here would.
  const fpga::ResourceVector& occupied = occupied_resources();
  const fpga::ResourceVector& fabric = board_.fabric_capacity();
  util_.lut_used += dt * static_cast<double>(used_.luts);
  util_.ff_used += dt * static_cast<double>(used_.ffs);
  util_.lut_capacity += dt * static_cast<double>(occupied.luts);
  util_.ff_capacity += dt * static_cast<double>(occupied.ffs);
  util_.lut_fabric += dt * static_cast<double>(fabric.luts);
  util_.ff_fabric += dt * static_cast<double>(fabric.ffs);
}

}  // namespace vs::runtime
