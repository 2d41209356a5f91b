#include "cluster/cluster.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/trace_hub.h"
#include "util/log.h"

namespace vs::cluster {

namespace {

const char* config_name(core::SwitchLoop::Config config) {
  return config == core::SwitchLoop::Config::kBigLittle ? "Big.Little"
                                                        : "Only.Little";
}

}  // namespace

Cluster::Cluster(sim::Simulator& sim, const std::vector<apps::AppSpec>& suite,
                 ClusterOptions options)
    : sim_(sim),
      suite_(suite),
      options_(options),
      link_(sim, options.link_params),
      monitor_(options.dswitch_period),
      loop_(options.t1, options.t2) {
  assert(options_.boards_per_config >= 1);
  if (suite_.size() > static_cast<std::size_t>(runtime::LoadCell::kSpecBits)) {
    // Affinity routing reads one load-cell bit per spec.
    throw std::invalid_argument(
        "cluster suites hold at most " +
        std::to_string(runtime::LoadCell::kSpecBits) + " app specs, got " +
        std::to_string(suite_.size()));
  }
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    link_.bind_metrics(reg);
    m_dswitch_evals_ =
        obs::CounterHandle{&reg.counter("vs_dswitch_evaluations_total")};
    m_switches_ =
        obs::CounterHandle{&reg.counter("vs_dswitch_switches_total")};
    m_migrated_apps_ =
        obs::CounterHandle{&reg.counter("vs_cluster_migrated_apps_total")};
    m_dswitch_value_ = obs::GaugeHandle{&reg.gauge("vs_dswitch_value")};
    m_active_apps_ = obs::GaugeHandle{&reg.gauge("vs_cluster_active_apps")};
    if (options_.migration.active()) {
      // Registered only when pre-copy is on, so whole-state exports stay
      // byte-identical.
      m_migration_rounds_ =
          obs::CounterHandle{&reg.counter("vs_migration_rounds_total")};
      m_precopy_bytes_ = obs::CounterHandle{
          &reg.counter("vs_migration_precopy_bytes_total")};
      // Sub-ms buckets: pre-copy stop-and-copy downtime sits well below
      // 1 ms and would be unresolvable in default_ms_bounds().
      m_migration_downtime_ms_ = obs::HistogramHandle{&reg.histogram(
          "vs_migration_downtime_ms", obs::default_sub_ms_bounds())};
    }
  }
  if (options_.hub != nullptr) obs_ = &options_.hub->channel("cluster");
  for (int i = 0; i < options_.boards_per_config; ++i) {
    boards_ol_.push_back(std::make_unique<fpga::Board>(
        sim_, "fpga-OL" + std::to_string(i), fpga::FabricConfig::only_little(),
        options_.board_params));
    boards_bl_.push_back(std::make_unique<fpga::Board>(
        sim_, "fpga-BL" + std::to_string(i), fpga::FabricConfig::big_little(),
        options_.board_params));
  }
  // The cluster always starts in Only.Little, as the switch loop does.
  activate_pool(core::SwitchLoop::Config::kOnlyLittle);

  // Fault plane: constructed only when the scenario is enabled so the
  // fault-free path stays byte-for-byte identical (no extra registry
  // entries, no extra events, no plane lookups).
  if (options_.faults.enabled()) {
    fault_plane_ = std::make_unique<faults::FaultPlane>(sim_, options_.faults);
    if (options_.metrics != nullptr) {
      obs::MetricsRegistry& reg = *options_.metrics;
      fault_plane_->bind_metrics(reg);
      m_evacuated_ = obs::CounterHandle{
          &reg.counter("vs_recovery_evacuated_apps_total")};
      m_restarted_ = obs::CounterHandle{
          &reg.counter("vs_recovery_restarted_apps_total")};
      m_lost_ =
          obs::CounterHandle{&reg.counter("vs_recovery_lost_apps_total")};
      m_shed_ =
          obs::CounterHandle{&reg.counter("vs_recovery_shed_apps_total")};
      m_readmitted_ =
          obs::CounterHandle{&reg.counter("vs_recovery_readmissions_total")};
      if (!options_.faults.domains.empty()) {
        // Registered only when failure domains exist, so rack-free exports
        // stay byte-identical.
        m_spare_exhausted_ = obs::CounterHandle{
            &reg.counter("vs_recovery_spare_exhausted_total")};
      }
      m_evac_latency_ = obs::HistogramHandle{&reg.histogram(
          "vs_recovery_evac_latency_ms", obs::default_ms_bounds())};
      m_mttr_ = obs::HistogramHandle{
          &reg.histogram("vs_recovery_mttr_ms", obs::default_ms_bounds())};
      if (options_.recovery.throttle != RecoveryOptions::Throttle::kOff) {
        // Registered only when the throttle is on, so throttle-free
        // exports stay byte-identical.
        m_throttle_deferred_ = obs::CounterHandle{
            &reg.counter("vs_throttle_deferred_total")};
        m_throttle_shed_ =
            obs::CounterHandle{&reg.counter("vs_throttle_shed_total")};
      }
      if (options_.checkpoint.active()) {
        // Registered only when checkpointing is on, so recovery-without-
        // checkpoint exports carry no checkpoint instruments.
        m_ckpt_restored_ = obs::CounterHandle{&reg.counter(
            "vs_recovery_checkpoint_restored_apps_total")};
        m_restored_items_ = obs::HistogramHandle{&reg.histogram(
            "vs_ckpt_restored_items", obs::default_count_bounds())};
        m_rerun_window_ms_ = obs::HistogramHandle{&reg.histogram(
            "vs_ckpt_rerun_window_ms", obs::default_ms_bounds())};
      }
    }
    for (auto& b : boards_ol_) {
      fault_plane_->add_board(*b);
      plane_boards_.push_back(b.get());
      plane_configs_.push_back(core::SwitchLoop::Config::kOnlyLittle);
    }
    for (auto& b : boards_bl_) {
      fault_plane_->add_board(*b);
      plane_boards_.push_back(b.get());
      plane_configs_.push_back(core::SwitchLoop::Config::kBigLittle);
    }
    fault_plane_->set_handler(
        [this](const faults::HealthEvent& e) { on_health_event(e); });
    fault_plane_->start();
  }
}

std::vector<fpga::Board*> Cluster::boards_for(
    core::SwitchLoop::Config config) {
  std::vector<fpga::Board*> out;
  auto& pool = config == core::SwitchLoop::Config::kBigLittle ? boards_bl_
                                                              : boards_ol_;
  out.reserve(pool.size());
  for (auto& b : pool) out.push_back(b.get());
  return out;
}

int Cluster::new_epoch(core::SwitchLoop::Config config, fpga::Board& board) {
  auto epoch = std::make_unique<Epoch>();
  epoch->board = &board;
  epoch->config = config;
  core::VersaSlotOptions popts;
  popts.mode = config == core::SwitchLoop::Config::kBigLittle
                   ? core::VersaSlotOptions::Mode::kBigLittle
                   : core::VersaSlotOptions::Mode::kOnlyLittle;
  epoch->policy = std::make_unique<core::VersaSlotPolicy>(popts);
  epoch->runtime =
      std::make_unique<runtime::BoardRuntime>(*epoch->board, *epoch->policy);
  epoch->runtime->set_on_app_complete([this](const runtime::CompletedApp& c) {
    completed_.push_back(c);
    on_queue_update();
    // Serving-plane hook last: admission pumps and rebalance checks run
    // after the D_switch sampling for this completion.
    if (on_app_complete_) on_app_complete_(c);
  });
  epoch->runtime->enable_checkpoints(options_.checkpoint);
  if (options_.migration.active()) {
    // Pre-copy rounds drain the migration plane of each app's dirty map;
    // the region geometry is shared with delta checkpointing.
    epoch->runtime->enable_dirty_tracking(options_.checkpoint.granularity);
  }
  if (options_.phase_accounting) epoch->runtime->enable_phase_accounting();
  // Idempotent registration: a board reused across epochs resolves the same
  // cells, so its counters accumulate over the whole cluster run.
  if (options_.metrics != nullptr) {
    epoch->runtime->bind_metrics(*options_.metrics);
  }
  if (options_.hub != nullptr) {
    // Every epoch of a board records into the board's one channel.
    epoch->runtime->bind_observability(options_.hub->channel(board.name()));
  }
  epochs_.push_back(std::move(epoch));
  return static_cast<int>(epochs_.size()) - 1;
}

bool Cluster::board_usable(const fpga::Board* board) const {
  if (fault_plane_ == nullptr) return true;
  for (std::size_t i = 0; i < plane_boards_.size(); ++i) {
    if (plane_boards_[i] == board) {
      return fault_plane_->board_up(static_cast<int>(i));
    }
  }
  return true;
}

void Cluster::activate_pool(core::SwitchLoop::Config config) {
  std::vector<int> pool;
  for (fpga::Board* board : boards_for(config)) {
    if (!board_usable(board)) continue;  // down boards rejoin on reboot
    pool.push_back(new_epoch(config, *board));
  }
  set_active_pool(std::move(pool));
}

void Cluster::set_active_pool(std::vector<int> epochs) {
  for (int index : active_epochs_) runtime_of(index).bind_load_cell(nullptr);
  active_epochs_ = std::move(epochs);
  // Bound only after the resize: growing the vector moves every cell.
  pool_cells_.assign(active_epochs_.size(), runtime::LoadCell{});
  for (std::size_t i = 0; i < active_epochs_.size(); ++i) {
    runtime_of(active_epochs_[i]).bind_load_cell(&pool_cells_[i]);
  }
}

runtime::BoardRuntime* Cluster::least_loaded_or_null(int warm_spec) {
  // Butler's "find an available FPGA" as one pass over dense cells: the
  // first minimum of 2*load - warm keeps the pool-order tie-break.
  std::size_t best = pool_cells_.size();
  int best_score = 0;
  for (std::size_t i = 0; i < pool_cells_.size(); ++i) {
    const runtime::LoadCell& cell = pool_cells_[i];
    int score = 2 * cell.load - (cell.warm(warm_spec) ? 1 : 0);
    if (best == pool_cells_.size() || score < best_score) {
      best = i;
      best_score = score;
    }
  }
  if (best == pool_cells_.size()) return nullptr;
  return &runtime_of(active_epochs_[best]);
}

void Cluster::submit_sequence(const workload::Sequence& sequence) {
  for (const apps::AppArrival& a : sequence) {
    sim_.schedule_at(a.arrival, [this, a] { dispatch_arrival(a); });
  }
}

void Cluster::dispatch_arrival(const apps::AppArrival& a, int warm_spec) {
  ++submitted_;
  const RecoveryOptions::Throttle throttle = options_.recovery.throttle;
  // Recovery in progress: displaced apps are still waiting for a board, and
  // admitting fresh arrivals now would queue them in front of that backlog
  // and stretch the recovery-mode tail.
  const bool backlog =
      throttle != RecoveryOptions::Throttle::kOff && !readmit_queue_.empty();
  runtime::BoardRuntime* rt =
      backlog ? nullptr : least_loaded_or_null(warm_spec);
  if (rt == nullptr) {
    // Behind the backlog, or every board is down (fault plane only — the
    // fault-free cluster always has an active pool; a full outage is the
    // deepest recovery backlog there is).
    if (throttle == RecoveryOptions::Throttle::kShed) {
      // Dropped at the door. Still counted as submitted — like apps_lost,
      // the bench-level censored accounting must see the refused work.
      ++recovery_stats_.arrivals_shed;
      m_throttle_shed_.add();
      return;
    }
    if (backlog) {
      ++recovery_stats_.arrivals_deferred;
      m_throttle_deferred_.add();
    }
    MigratedApp m;
    m.spec_index = a.spec_index;
    m.batch = a.batch;
    m.arrival = a.arrival;
    m.item_interval = a.item_interval;
    m.state_bytes = 0;
    m.tenant = a.tenant;
    readmit_queue_.push_back(ReadmitEntry{std::move(m), nullptr});
    return;
  }
  rt->submit(suite_.at(static_cast<std::size_t>(a.spec_index)), a.spec_index,
             a.batch, a.arrival, a.item_interval, a.tenant);
  on_queue_update();
}

int Cluster::rebalance_active(int min_spread) {
  assert(min_spread >= 1);
  if (pool_cells_.size() < 2) return 0;
  std::size_t busiest = 0;
  int min_load = pool_cells_[0].load;
  for (std::size_t i = 1; i < pool_cells_.size(); ++i) {
    int load = pool_cells_[i].load;
    if (load > pool_cells_[busiest].load) busiest = i;
    min_load = std::min(min_load, load);
  }
  if (pool_cells_[busiest].load - min_load < min_spread) return 0;
  // Only unstarted apps move — the same "ready list" a D_switch migration
  // ships — so no progress is at risk and the origin keeps its running work.
  std::vector<MigratedApp> moved =
      runtime_of(active_epochs_[busiest]).extract_unstarted();
  if (moved.empty()) return 0;
  const int moved_count = static_cast<int>(moved.size());
  std::int64_t bytes = 4096;  // rebalance-control message
  for (const MigratedApp& m : moved) bytes += m.state_bytes;
  m_migrated_apps_.add(moved_count);
  link_.transfer(bytes, [this, moved = std::move(moved)]() mutable {
    land_migrated(std::move(moved), /*flow=*/0);
    on_queue_update();
  });
  return moved_count;
}

void Cluster::land_migrated(std::vector<MigratedApp> migrated,
                            std::uint64_t flow) {
  for (MigratedApp& m : migrated) {
    // The destination is re-picked per app at landing time; a target board
    // that crashed while the state was on the link leaves the app queued
    // for re-admission, exactly as displaced-app placement does.
    runtime::BoardRuntime* rt = least_loaded_or_null();
    if (rt == nullptr) {
      readmit_queue_.push_back(ReadmitEntry{std::move(m), nullptr});
      continue;
    }
    if (flow != 0) {
      // Close the causal arrow at the first resume on the destination.
      obs_->flow(flow, obs::FlowPhase::kEnd, sim_.now(), rt->board().name(),
                 "migration", "resume");
      flow = 0;
    }
    rt->submit_migrated(suite_.at(static_cast<std::size_t>(m.spec_index)), m,
                        runtime::AppPhase::kMigration);
  }
  if (flow != 0) {
    // Nothing resumed: the switch moved no app, or every app it moved
    // queued for re-admission. The arrow ends at the landing all the same,
    // on the coordinator's lane.
    obs_->flow(flow, obs::FlowPhase::kEnd, sim_.now(), "cluster", "migration",
               "landed, nothing resumed");
  }
}

std::string Cluster::origin_name(const std::vector<int>& origins) const {
  // Every active board can be down when a switch fires (the failover left
  // nothing to drain); the coordinator then stands in as the origin.
  if (origins.empty()) return "cluster";
  return epochs_[static_cast<std::size_t>(origins.front())]->board->name();
}

void Cluster::on_queue_update() {
  if (monitor_.on_queue_update()) sample_and_act();
}

void Cluster::sample_and_act() {
  core::DSwitchSample sample;
  sample.time = sim_.now();
  // One pass over the active pool's cells, taking each board's window.
  for (runtime::LoadCell& cell : pool_cells_) {
    sample.blocked += cell.blocked;
    sample.prs += cell.prs;
    sample.apps += cell.load;
    sample.batch += cell.batch;
    cell.blocked = 0;
    cell.prs = 0;
  }
  if (sample.prs == 0 && sample.apps > 0) {
    // No PR activity this window (slots are mid-batch): the sample carries
    // no new contention information, so hold the previous level instead of
    // reporting a spurious zero.
    sample.value = monitor_.last();
  } else {
    sample.value = core::dswitch_value(sample.blocked, sample.prs,
                                       sample.apps, sample.batch);
  }
  monitor_.record(sample);
  m_dswitch_evals_.add();
  m_dswitch_value_.set(sample.value);
  m_active_apps_.set(sample.apps);

  if (!options_.enable_switching) return;
  if (static_cast<int>(monitor_.trace().size()) <= options_.warmup_samples) {
    return;
  }
  if (loop_.config() == core::SwitchLoop::Config::kOnlyLittle &&
      sample.apps < options_.min_queue_for_switch) {
    return;  // no sustained backlog: an upward switch would thrash
  }
  if (loop_.config() == core::SwitchLoop::Config::kBigLittle &&
      sample.apps > options_.min_queue_for_switch) {
    return;  // backlog persists: keep the contention-friendly fabric
  }

  core::SwitchLoop::Action action = loop_.feed(sample.value);
  switch (action) {
    case core::SwitchLoop::Action::kNone:
      break;
    case core::SwitchLoop::Action::kPrewarmBigLittle:
      if (options_.enable_prewarm) {
        prewarm(core::SwitchLoop::Config::kBigLittle);
      }
      break;
    case core::SwitchLoop::Action::kPrewarmOnlyLittle:
      if (options_.enable_prewarm) {
        prewarm(core::SwitchLoop::Config::kOnlyLittle);
      }
      break;
    case core::SwitchLoop::Action::kSwitchToBigLittle:
      do_switch(core::SwitchLoop::Config::kBigLittle, sample.value);
      break;
    case core::SwitchLoop::Action::kSwitchToOnlyLittle:
      do_switch(core::SwitchLoop::Config::kOnlyLittle, sample.value);
      break;
  }
}

bool Cluster::pool_free(core::SwitchLoop::Config config) const {
  const auto& pool = config == core::SwitchLoop::Config::kBigLittle
                         ? boards_bl_
                         : boards_ol_;
  for (const auto& e : epochs_) {
    for (const auto& board : pool) {
      if (e->board == board.get() && !e->runtime->drained()) return false;
    }
  }
  return true;
}

void Cluster::prewarm(core::SwitchLoop::Config config) {
  // Background-load every suite bitstream variant into the spare boards'
  // SD/DDR stores so PRs after the switch skip the SD fetch.
  const core::VersaSlotOptions bl;  // the Big.Little pool's policy options
  for (fpga::Board* board : boards_for(config)) {
    for (std::size_t i = 0; i < suite_.size(); ++i) {
      const apps::AppSpec& spec = suite_[i];
      // Partial bitstreams are placement-specific: warm every slot's
      // variant of every task/bundle.
      for (const fpga::Slot& slot : board->slots()) {
        if (slot.kind() == fpga::SlotKind::kLittle) {
          for (const apps::UnitSpec& u : apps::make_little_units(spec)) {
            board->sdcard().prewarm(runtime::unit_bitstream_key(
                static_cast<int>(i), u, slot.id()));
          }
        } else {
          // Both serial and parallel bundle bitstreams are pre-generated;
          // warm the variants for representative batch extremes.
          std::vector<apps::UnitSpec> bundles;
          for (int batch : {1, 30}) {
            apps::make_big_units(bundles, spec, batch, options_.board_params,
                                 bl.synthesis, bl.bundle_size);
            for (const apps::UnitSpec& u : bundles) {
              board->sdcard().prewarm(runtime::unit_bitstream_key(
                  static_cast<int>(i), u, slot.id()));
            }
          }
        }
      }
    }
  }
}

void Cluster::do_switch(core::SwitchLoop::Config target, double d) {
  // A switch that cannot start now is deferred: the loop state reverts so a
  // later sample can retrigger it.
  const char* deferred = nullptr;
  if (precopy_active_) {
    // The previous migration is still streaming; its origins cannot start
    // a second extraction.
    deferred = "pre-copy migration in flight";
  } else if (std::ranges::any_of(boards_for(target), [this](auto* board) {
               return !board_usable(board);
             })) {
    deferred = "target board down";
  } else if (!pool_free(target)) {
    deferred = "spare pool still draining";  // a previous epoch is draining
  }
  if (deferred != nullptr) {
    loop_ = core::SwitchLoop(options_.t1, options_.t2,
                             target == core::SwitchLoop::Config::kBigLittle
                                 ? core::SwitchLoop::Config::kOnlyLittle
                                 : core::SwitchLoop::Config::kBigLittle);
    VS_WARN << "switch to " << config_name(target) << " deferred: "
            << deferred;
    return;
  }

  // The spare pool was pre-configured; its SD cards hold the full offline
  // bitstream set, and staging into DDR happened in the background while
  // idle (buffer-zone pre-warming made this explicit; a pool that jumped
  // straight past T1 stages now, off the critical path).
  prewarm(target);

  if (options_.migration.active()) {
    begin_precopy(target, d);
    return;
  }

  // Drain every active origin board; collect its migratable applications.
  const std::string origin = origin_name(active_epochs_);
  std::vector<MigratedApp> migrated;
  for (int index : active_epochs_) {
    runtime::BoardRuntime& rt =
        *epochs_[static_cast<std::size_t>(index)]->runtime;
    rt.stop_admission();
    auto part = rt.extract_migratable();
    migrated.insert(migrated.end(), part.begin(), part.end());
  }
  std::uint64_t flow = 0;
  if (obs_ != nullptr && obs_->trace_on()) {
    flow = obs_->new_flow_id();
    obs_->flow(flow, obs::FlowPhase::kStart, sim_.now(), origin, "migration",
               "switch -> ", config_name(target));
  }

  activate_pool(target);

  SwitchEvent event;
  event.time = sim_.now();
  event.to = target;
  event.dswitch = d;
  event.apps_migrated = static_cast<int>(migrated.size());
  event.bytes = 4096;  // switch-control message
  for (const auto& m : migrated) event.bytes += m.state_bytes;
  // Whole-state: the origins are already paused, so the entire transfer is
  // stop-and-copy downtime.
  event.stopcopy_bytes = event.bytes;
  std::size_t event_index = switch_events_.size();
  switch_events_.push_back(event);
  m_switches_.add();
  m_migrated_apps_.add(event.apps_migrated);
  if (obs_ != nullptr && obs_->journal_on()) {
    obs_->journal(sim_.now(), obs::JournalEvent::kMigrate, origin, -1, {},
                  flow, "whole-state -> ", config_name(target), ", ",
                  migrated.size(), " apps, ", event.bytes, " B");
  }

  VS_INFO << "cross-board switch -> " << config_name(target) << " (D=" << d
          << ", migrating " << migrated.size() << " apps, " << event.bytes
          << " bytes)";

  sim::SimTime t0 = sim_.now();
  link_.transfer(event.bytes, [this, migrated = std::move(migrated), t0,
                               event_index, flow]() mutable {
    switch_events_[event_index].overhead = sim_.now() - t0;
    switch_events_[event_index].downtime = sim_.now() - t0;
    land_migrated(std::move(migrated), flow);
  });
}

// --- Pre-copy migration -------------------------------------------------

void Cluster::begin_precopy(core::SwitchLoop::Config target, double d) {
  auto st = std::make_shared<PrecopyState>();
  st->target = target;
  st->origins = active_epochs_;
  st->t0 = sim_.now();
  if (obs_ != nullptr && obs_->trace_on()) {
    st->flow = obs_->new_flow_id();
    obs_->flow(st->flow, obs::FlowPhase::kStart, sim_.now(),
               origin_name(st->origins), "migration", "pre-copy -> ",
               config_name(target));
  }
  if (obs_ != nullptr && obs_->journal_on()) {
    obs_->journal(sim_.now(), obs::JournalEvent::kMigrate,
                  origin_name(st->origins), -1, {}, st->flow, "pre-copy -> ",
                  config_name(target));
  }
  // The origins stop admitting but *keep executing* — that is the point of
  // pre-copy. New arrivals flow to the target pool immediately.
  for (int index : st->origins) {
    epochs_[static_cast<std::size_t>(index)]->runtime->stop_admission();
  }
  activate_pool(target);
  // First round: every app that is pause-visible right now ships its full
  // migratable footprint; running apps join the stream when they pause
  // (their dirt keeps accumulating in the migration plane until then).
  std::int64_t first = 4096;  // switch-control message
  for (int index : st->origins) {
    runtime::BoardRuntime& rt =
        *epochs_[static_cast<std::size_t>(index)]->runtime;
    rt.begin_migration_stream();
    first += rt.take_migration_stream_bytes();
  }
  st->first_round_bytes = first;

  SwitchEvent event;
  event.time = sim_.now();
  event.to = target;
  event.dswitch = d;
  st->event_index = switch_events_.size();
  switch_events_.push_back(event);
  m_switches_.add();
  precopy_active_ = true;
  VS_INFO << "pre-copy switch -> " << config_name(target) << " (D=" << d
          << ", first round " << first << " bytes)";
  precopy_round(std::move(st), first);
}

void Cluster::precopy_round(std::shared_ptr<PrecopyState> st,
                            std::int64_t bytes) {
  ++st->rounds;
  st->streamed += bytes;
  m_migration_rounds_.add();
  m_precopy_bytes_.add(bytes);
  if (st->flow != 0) {
    obs_->flow(st->flow, obs::FlowPhase::kStep, sim_.now(), "cluster",
               "precopy", "round ", st->rounds, " (", bytes, " B)");
  }
  link_.transfer(bytes, [this, st] {
    // Round landed: the next payload is the footprint of apps that paused
    // since (first-time streams) plus the dirt already-streamed apps wrote
    // while running in between. Crashed origins dropped out (the crash
    // path evacuated their apps); drained ones contribute nothing.
    std::int64_t dirty = 0;
    for (int index : st->origins) {
      runtime::BoardRuntime& rt =
          *epochs_[static_cast<std::size_t>(index)]->runtime;
      if (rt.crashed()) continue;
      dirty += rt.take_migration_stream_bytes();
    }
    const MigrationPolicy& mp = options_.migration;
    auto floor = std::max(
        mp.min_dirty_bytes,
        static_cast<std::int64_t>(mp.convergence *
                                  static_cast<double>(st->first_round_bytes)));
    if (dirty <= floor || st->rounds >= mp.max_rounds) {
      finish_precopy(std::move(st), dirty);
    } else {
      precopy_round(std::move(st), dirty);
    }
  });
}

void Cluster::finish_precopy(std::shared_ptr<PrecopyState> st,
                             std::int64_t final_dirty) {
  // Stop-and-copy: *now* the origins pause and release their migratable
  // apps; only the final dirty residue still has to cross the link — the
  // streamed base and deltas already reconstruct everything else.
  std::vector<MigratedApp> migrated;
  for (int index : st->origins) {
    runtime::BoardRuntime& rt =
        *epochs_[static_cast<std::size_t>(index)]->runtime;
    if (rt.crashed()) continue;
    auto part = rt.extract_migratable();
    migrated.insert(migrated.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
  }
  SwitchEvent& event = switch_events_[st->event_index];
  event.apps_migrated = static_cast<int>(migrated.size());
  event.precopy_rounds = st->rounds;
  event.precopy_bytes = st->streamed;
  event.stopcopy_bytes = 4096 + final_dirty;  // control message + residue
  event.bytes = st->streamed + event.stopcopy_bytes;
  m_migrated_apps_.add(event.apps_migrated);
  if (st->flow != 0) {
    obs_->flow(st->flow, obs::FlowPhase::kStep, sim_.now(), "cluster",
               "precopy", "stop-and-copy (", event.stopcopy_bytes, " B)");
  }
  VS_INFO << "pre-copy stop-and-copy after " << st->rounds << " rounds ("
          << event.precopy_bytes << " streamed, " << event.stopcopy_bytes
          << " stop-copy bytes, " << event.apps_migrated << " apps)";

  sim::SimTime t0 = sim_.now();
  link_.transfer(
      event.stopcopy_bytes,
      [this, st = std::move(st), migrated = std::move(migrated), t0]() mutable {
        SwitchEvent& done = switch_events_[st->event_index];
        done.downtime = sim_.now() - t0;
        done.overhead = sim_.now() - st->t0;
        m_migration_downtime_ms_.observe(sim::to_ms(done.downtime));
        precopy_active_ = false;
        land_migrated(std::move(migrated), st->flow);
      });
}

// --- Fault plane and recovery ------------------------------------------

void Cluster::on_health_event(const faults::HealthEvent& e) {
  switch (e.kind) {
    case faults::FaultKind::kBoardCrash: {
      ++recovery_stats_.boards_crashed;
      fpga::Board* board = plane_boards_.at(static_cast<std::size_t>(e.board));
      // Crash every live epoch on this board (the active one, plus a
      // draining origin epoch still finishing ongoing apps after a switch)
      // straight into the detection window's batch. Checkpoint-restored
      // apps ride the same evacuation transfer as live-migrated ones (their
      // snapshot bytes are in state_bytes); the from_checkpoint flag keeps
      // the accounting separate.
      const std::size_t held = batch_.evacuable.size() + batch_.killed.size();
      for (auto& ep : epochs_) {
        if (ep->board != board) continue;
        if (ep->runtime->crashed() || ep->runtime->drained()) continue;
        runtime::BoardRuntime::CrashReport report = ep->runtime->crash();
        std::ranges::move(report.evacuable,
                          std::back_inserter(batch_.evacuable));
        std::ranges::move(report.checkpointed,
                          std::back_inserter(batch_.evacuable));
        std::ranges::move(report.killed, std::back_inserter(batch_.killed));
      }
      std::vector<int> pool = active_epochs_;
      std::erase_if(pool, [&](int index) {
        return epochs_[static_cast<std::size_t>(index)]->board == board;
      });
      set_active_pool(std::move(pool));
      // One flow per batch: the window's first crash starts it, and each
      // later crash inside the window is a step on it.
      if (obs_ != nullptr && obs_->trace_on()) {
        if (!batch_open_) batch_.flow = obs_->new_flow_id();
        const obs::FlowPhase phase =
            batch_open_ ? obs::FlowPhase::kStep : obs::FlowPhase::kStart;
        obs_->flow(batch_.flow, phase, e.time, board->name(), "fault",
                   "crash ", board->name());
      }
      if (obs_ != nullptr && obs_->journal_on()) {
        obs_->journal(e.time, obs::JournalEvent::kCrash, board->name(), -1,
                      {}, batch_.flow,
                      batch_.evacuable.size() + batch_.killed.size() - held,
                      " displaced");
      }
      // Recovery acts one detection latency (heartbeat + decision) after
      // the first crash; crashes inside that window join its batch.
      if (batch_open_) break;
      batch_open_ = true;
      batch_.crash_time = e.time;
      sim_.schedule(kDetectionLatency, [this] {
        batch_open_ = false;
        handle_crash(std::exchange(batch_, PendingBatch{}));
      });
      break;
    }
    case faults::FaultKind::kRackEvent: {
      // The member crashes arrive as their own kBoardCrash events right
      // after this record; the rack event itself is pure bookkeeping.
      ++recovery_stats_.rack_events;
      if (obs_ != nullptr && obs_->journal_on()) {
        obs_->journal(e.time, obs::JournalEvent::kCrash, "cluster", -1, {},
                      0, "rack event, domain ", e.board);
      }
      break;
    }
    case faults::FaultKind::kBoardReboot: {
      ++recovery_stats_.boards_rebooted;
      fpga::Board* board = plane_boards_.at(static_cast<std::size_t>(e.board));
      // The reboot reloads the full bitstream: fresh slots, empty fabric.
      board->reconfigure_fabric(board->fabric());
      core::SwitchLoop::Config config =
          plane_configs_.at(static_cast<std::size_t>(e.board));
      if (config == loop_.config() || active_epochs_.empty()) {
        if (config != loop_.config()) {
          // The whole active pool is down: fail over to the rebooted board.
          loop_ = core::SwitchLoop(options_.t1, options_.t2, config);
        }
        std::vector<int> pool = active_epochs_;
        pool.push_back(new_epoch(config, *board));
        set_active_pool(std::move(pool));
      }
      drain_readmit_queue();
      break;
    }
    case faults::FaultKind::kLinkDown:
      ++recovery_stats_.link_flaps;
      link_.set_down();
      break;
    case faults::FaultKind::kLinkUp:
      link_.set_up();
      break;
    case faults::FaultKind::kSlotSeu: {
      ++recovery_stats_.slot_seus;
      fpga::Board* board = plane_boards_.at(static_cast<std::size_t>(e.board));
      for (auto& ep : epochs_) {
        if (ep->board != board) continue;
        if (ep->runtime->crashed() || ep->runtime->drained()) continue;
        ep->runtime->inject_slot_seu(e.slot);
        break;
      }
      break;
    }
  }
}

void Cluster::handle_crash(PendingBatch batch) {
  if (batch.flow != 0) {
    obs_->flow(batch.flow, obs::FlowPhase::kStep, sim_.now(), "cluster",
               "recovery", "detected");
  }
  // Ends the batch's flow where recovery stops without a readmission.
  auto end_flow = [&](std::string_view outcome) {
    if (batch.flow != 0) {
      obs_->flow(batch.flow, obs::FlowPhase::kEnd, sim_.now(), "cluster",
                 "recovery", outcome);
    }
  };
  const RecoveryOptions& ro = options_.recovery;
  const int displaced = static_cast<int>(batch.evacuable.size()) +
                        static_cast<int>(batch.killed.size());
  if (displaced == 0) {
    end_flow("nothing displaced");
    close_mttr(batch.crash_time);  // empty boards: detection alone
    return;
  }
  if (!ro.enable_recovery) {
    // No recovery: the displaced apps die with the board. They never reach
    // completed_, so fault benches evaluate at a fixed horizon.
    recovery_stats_.apps_lost += displaced;
    m_lost_.add(displaced);
    end_flow("lost");
    return;
  }
  if (ro.kill_restart) {
    // Baseline: progress is not checkpointed anywhere — every displaced
    // app restarts from scratch, and only a control message transfers.
    for (MigratedApp& m : batch.evacuable) {
      m.progress.clear();
      m.state_bytes = 0;
    }
  }

  // Graceful degradation: tenants with progress (Big-slot bundles and
  // started Little work) are always kept; zero-progress arrivals are shed
  // smallest-batch-first once the displaced set exceeds the threshold.
  std::vector<MigratedApp> keep;
  std::vector<MigratedApp> fresh;
  keep.reserve(static_cast<std::size_t>(displaced));
  for (auto* part : {&batch.evacuable, &batch.killed}) {
    for (MigratedApp& m : *part) {
      (m.progress.empty() ? fresh : keep).push_back(std::move(m));
    }
  }
  std::stable_sort(fresh.begin(), fresh.end(),
                   [](const MigratedApp& a, const MigratedApp& b) {
                     return a.batch > b.batch;
                   });
  int room = ro.shed_threshold - static_cast<int>(keep.size());
  if (room < 0) room = 0;
  if (static_cast<int>(fresh.size()) > room) {
    int shed = static_cast<int>(fresh.size()) - room;
    recovery_stats_.apps_shed += shed;
    m_shed_.add(shed);
    if (obs_ != nullptr && obs_->journal_on()) {
      obs_->journal(sim_.now(), obs::JournalEvent::kShed, "cluster", -1, {},
                    batch.flow, shed, " apps");
    }
    fresh.resize(static_cast<std::size_t>(room));
  }
  for (MigratedApp& m : fresh) keep.push_back(std::move(m));
  if (keep.empty()) {
    end_flow("shed");
    close_mttr(batch.crash_time);
    return;
  }
  for (const MigratedApp& m : keep) {
    if (m.progress.empty()) {
      ++recovery_stats_.apps_restarted;
      m_restarted_.add();
    } else if (m.from_checkpoint) {
      ++recovery_stats_.apps_checkpoint_restored;
      m_ckpt_restored_.add();
      std::int64_t restored_items = 0;
      for (int d : m.progress) restored_items += d;
      m_restored_items_.observe(static_cast<double>(restored_items));
      // Work since the snapshot re-runs on the target board; the window is
      // bounded by one checkpoint interval.
      m_rerun_window_ms_.observe(sim::to_ms(batch.crash_time - m.ckpt_time));
    } else {
      ++recovery_stats_.apps_evacuated;
      m_evacuated_.add();
    }
  }

  if (least_loaded_or_null() == nullptr) {
    // The whole active pool is down. Failure-triggered switch: bring up
    // the spare pool if it is free and healthy; otherwise the displaced
    // apps queue for re-admission at the next reboot.
    core::SwitchLoop::Config spare =
        loop_.config() == core::SwitchLoop::Config::kBigLittle
            ? core::SwitchLoop::Config::kOnlyLittle
            : core::SwitchLoop::Config::kBigLittle;
    bool healthy = pool_free(spare);
    for (fpga::Board* b : boards_for(spare)) {
      healthy = healthy && board_usable(b);
    }
    if (healthy) {
      loop_ = core::SwitchLoop(options_.t1, options_.t2, spare);
      activate_pool(spare);
      SwitchEvent event;
      event.time = sim_.now();
      event.to = spare;
      event.dswitch = -1.0;  // failover sentinel: not a D_switch decision
      event.apps_migrated = static_cast<int>(keep.size());
      switch_events_.push_back(event);
      m_switches_.add();
      VS_WARN << "failover switch -> " << config_name(spare);
    } else {
      // Spare pool exhausted: origin AND preferred destination died (a
      // rack spanning both pools) or the spare is still draining. Graceful
      // degradation: the displaced apps queue for re-admission at the next
      // reboot below, and RecoveryOptions::throttle defers/sheds fresh
      // arrivals behind that backlog in the meantime.
      ++recovery_stats_.spare_exhausted;
      m_spare_exhausted_.add();
      VS_WARN << "spare pool exhausted: " << keep.size()
              << " displaced apps queue for re-admission";
    }
  }

  // Evacuate over the Aurora link: DDR state of apps with progress plus a
  // control message; the same path as a D_switch live migration.
  std::int64_t bytes = 4096;
  for (const MigratedApp& m : keep) bytes += m.state_bytes;
  auto ticket = std::make_shared<CrashTicket>();
  ticket->crash_time = batch.crash_time;
  ticket->remaining = static_cast<int>(keep.size());
  ticket->flow = batch.flow;
  link_.transfer(bytes, [this, keep = std::move(keep), ticket,
                         bytes]() mutable {
    if (ticket->flow != 0) {
      obs_->flow(ticket->flow, obs::FlowPhase::kStep, sim_.now(), "cluster",
                 "recovery", "evacuation landed (", bytes, " B)");
    }
    for (MigratedApp& m : keep) place_displaced(std::move(m), ticket);
  });
}

void Cluster::close_mttr(sim::SimTime crash_time) {
  const sim::SimDuration mttr = sim_.now() - crash_time;
  recovery_stats_.mttr_total += mttr;
  ++recovery_stats_.mttr_count;
  m_mttr_.observe(sim::to_ms(mttr));
}

void Cluster::place_displaced(MigratedApp app,
                              const std::shared_ptr<CrashTicket>& ticket) {
  runtime::BoardRuntime* rt = least_loaded_or_null();
  if (rt == nullptr) {
    readmit_queue_.push_back(ReadmitEntry{std::move(app), ticket});
    return;
  }
  readmit(*rt, app, ticket);
}

void Cluster::drain_readmit_queue() {
  while (!readmit_queue_.empty()) {
    runtime::BoardRuntime* rt = least_loaded_or_null();
    if (rt == nullptr) return;
    ReadmitEntry entry = std::move(readmit_queue_.front());
    readmit_queue_.pop_front();
    ++recovery_stats_.readmissions;
    m_readmitted_.add();
    if (obs_ != nullptr && obs_->journal_on()) {
      obs_->journal(
          sim_.now(), obs::JournalEvent::kReadmit, rt->board().name(), -1,
          suite_.at(static_cast<std::size_t>(entry.app.spec_index)).name,
          entry.ticket != nullptr ? entry.ticket->flow : 0);
    }
    readmit(*rt, entry.app, entry.ticket);
  }
}

void Cluster::readmit(runtime::BoardRuntime& rt, const MigratedApp& app,
                      const std::shared_ptr<CrashTicket>& ticket) {
  if (ticket != nullptr && ticket->flow != 0 && !ticket->flow_done) {
    obs_->flow(ticket->flow, obs::FlowPhase::kEnd, sim_.now(),
               rt.board().name(), "recovery", "readmit");
    ticket->flow_done = true;
  }
  rt.submit_migrated(suite_.at(static_cast<std::size_t>(app.spec_index)), app,
                     runtime::AppPhase::kRecovery);
  if (ticket != nullptr) {
    m_evac_latency_.observe(sim::to_ms(sim_.now() - ticket->crash_time));
    if (--ticket->remaining == 0) close_mttr(ticket->crash_time);
  }
  on_queue_update();
}

}  // namespace vs::cluster
