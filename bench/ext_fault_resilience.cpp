// Extension: fault resilience of the two-board cluster.
//
// A stress workload runs under increasing board-crash hazard rates (with
// proportional link-flap and slot-SEU hazards, plus scripted crashes of
// the initially active board early in the run and of the failover board
// mid-run, so every nonzero rate is guaranteed direct hits on both fabric
// configurations — including Big-slot bundles). Four failure-handling
// modes are compared (filter with --recovery NAME):
//
//   no-recovery  -- displaced apps die with the board
//   kill-restart -- displaced apps restart from scratch on a survivor
//   recovery     -- paused apps live-migrate with their progress (the
//                   VersaSlot migration path reused as failure recovery)
//   checkpoint   -- recovery plus periodic DDR checkpoints: bundled apps
//                   and apps without committed progress restore to their
//                   last snapshot instead of restarting from scratch
//   ckpt-delta   -- checkpoint, but passes copy only DDR regions dirtied
//                   since the last snapshot (base-plus-delta chains with
//                   periodic compaction) instead of the whole image
//
// Checkpoint knobs: --ckpt-interval MS sets the pass cadence and
// --ckpt-granularity BYTES the dirty-region size, so sweeps can trade
// snapshot overhead against re-run window without recompiling. Per-mode
// checkpoint/migration byte and downtime accounting is exported to
// ext_fault_resilience.csv.
//
// Because lost apps never complete, plain mean response over completions
// would reward dropping work. The headline metric is therefore the
// *censored* mean response: apps not completed by the evaluation horizon
// T_eval count as (T_eval - arrival). Inflation is each mode's censored
// mean relative to its own fault-free (rate 0) run. The (rate x mode x
// sequence) grid runs on metrics::SweepRunner::map (--jobs N / VS_JOBS);
// the fault schedule for a given rate and sequence is seed-derived, so it
// is identical across the three modes and any worker count.
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "apps/benchmarks.h"
#include "faults/scenario.h"
#include "metrics/capture.h"
#include "metrics/experiment.h"
#include "metrics/sweep.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/table.h"
#include "workload/generator.h"

namespace {

using namespace vs;

struct Mode {
  const char* name;
  bool enable_recovery;
  bool kill_restart;
  bool checkpoint;
  bool delta;
};

/// One (rate, mode) cell reduced over its sequences: counts and stats are
/// sums, availability is a mean.
struct Cell {
  int done = 0;
  int submitted = 0;
  int switches = 0;
  double censored_mean_ms = 0.0;
  double baseline_ms = 0.0;  ///< the mode's rate-0 censored mean (0 = none)
  double avail = 0.0;
  cluster::RecoveryStats stats;
  runtime::CheckpointStats ckpt;
  int precopy_rounds = 0;
  std::int64_t precopy_bytes = 0;
  std::int64_t stopcopy_bytes = 0;
  double downtime_ms = 0.0;

  [[nodiscard]] double inflation() const {
    return baseline_ms > 0 ? censored_mean_ms / baseline_ms : 0;
  }
};

/// Runs the (rate x mode x sequence) grid on the sweep runner — run i
/// takes rate i / (modes x seqs), mode (i / seqs) % modes and sequence
/// i % seqs, with the options `options_for(rate, mode, seq)` builds — and
/// reduces it to one Cell per (rate, mode), rates outermost. The rate-0
/// pass comes first, so it sets each mode's inflation baseline.
template <typename OptionsFor>
std::vector<Cell> sweep(metrics::SweepRunner& runner,
                        const std::vector<apps::AppSpec>& suite,
                        const std::vector<workload::Sequence>& sequences,
                        const std::vector<double>& rates,
                        const std::vector<Mode>& modes, sim::SimTime t_eval,
                        OptionsFor options_for) {
  const std::size_t n_seqs = sequences.size();
  auto runs = runner.map<metrics::ClusterRunResult>(
      rates.size() * modes.size() * n_seqs, [&](std::size_t i) {
        return metrics::run_cluster(
            suite, sequences[i % n_seqs],
            options_for(rates[i / (modes.size() * n_seqs)],
                        modes[(i / n_seqs) % modes.size()], i % n_seqs));
      });
  std::vector<Cell> cells(rates.size() * modes.size());
  std::vector<double> baseline(modes.size(), 0.0);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    Cell& cell = cells[c];
    double censored_sum_ms = 0;
    for (std::size_t si = 0; si < n_seqs; ++si) {
      const metrics::ClusterRunResult& r = runs[c * n_seqs + si];
      cell.ckpt += r.checkpoint;
      cell.switches += static_cast<int>(r.switches.size());
      for (const cluster::SwitchEvent& e : r.switches) {
        cell.precopy_rounds += e.precopy_rounds;
        cell.precopy_bytes += e.precopy_bytes;
        cell.stopcopy_bytes += e.stopcopy_bytes;
        cell.downtime_ms += sim::to_ms(e.downtime);
      }
      cell.done += r.completed;
      cell.submitted += r.submitted;
      for (double ms : r.response_ms) censored_sum_ms += ms;
      // Charge every app the run did not complete with (T_eval - arrival):
      // match completions against the sequence's arrival multiset.
      std::multiset<sim::SimTime> open;
      for (const apps::AppArrival& a : sequences[si]) open.insert(a.arrival);
      for (const runtime::CompletedApp& done : r.apps) {
        auto it = open.find(done.arrival);
        if (it != open.end()) open.erase(it);
      }
      for (sim::SimTime arrival : open) {
        censored_sum_ms += sim::to_ms(t_eval - arrival);
      }
      cell.stats += r.recovery;
      cell.avail += r.availability;
    }
    cell.avail /= static_cast<double>(n_seqs);
    cell.censored_mean_ms =
        censored_sum_ms / static_cast<double>(cell.submitted);
    const std::size_t mi = c % modes.size();
    if (rates[c / modes.size()] == 0.0) baseline[mi] = cell.censored_mean_ms;
    cell.baseline_ms = baseline[mi];
  }
  return cells;
}

/// The failure-handling modes, in sweep order (--recovery NAME picks one).
const std::vector<Mode> kModes = {
    {"no-recovery", false, false, false, false},
    {"kill-restart", true, true, false, false},
    {"recovery", true, false, false, false},
    {"checkpoint", true, false, true, false},
    {"ckpt-delta", true, false, true, true},
};

/// Writes one CSV row of mixed string and number cells.
template <typename... Fields>
void csv_row(util::CsvWriter& csv, const Fields&... fields) {
  csv.begin_row();
  (csv.field(fields), ...);
  csv.end_row();
}

}  // namespace

int run(const util::CliArgs& args) {
  metrics::SweepRunner runner(args);
  const int apps_per_seq =
      static_cast<int>(args.get_int("apps", 40, 1, 100'000));
  const int n_seqs_arg = static_cast<int>(args.get_int("seqs", 2, 1, 1000));
  // Capture (metrics/capture.h) attaches to one replay after the sweep.
  metrics::Capture capture(args);
  const double ckpt_interval_ms =
      args.get_double("ckpt-interval", 25.0, 0.1, 60'000.0);
  const std::int64_t ckpt_granularity =
      args.get_int("ckpt-granularity", 64 * 1024, 64, std::int64_t{1} << 30);
  // --racks N: the rack sweep below; --rack-rate R pins its one nonzero
  // rate (-1: sweep the default rates).
  const int racks = static_cast<int>(args.get_int("racks", 0, 0, 256));
  const double rack_rate = args.get_double("rack-rate", -1.0, 0.0, 100.0);
  std::vector<std::string_view> mode_names;
  for (const Mode& m : kModes) mode_names.push_back(m.name);
  const std::size_t mode_pick = args.get_choice("recovery", mode_names, "");
  // Load-aware admission throttle during recovery (--throttle
  // off|defer|shed, indexed by Throttle): while displaced apps wait for
  // readmission, new arrivals are deferred behind them or shed. Off by
  // default (the committed CSV is byte-identical to a throttle-free
  // build); defer in the rack sweep.
  const std::vector<std::string_view> throttles = {"off", "defer", "shed"};
  const std::size_t throttle_pick =
      args.get_choice("throttle", throttles, racks > 0 ? "defer" : "off");
  const auto throttle =
      static_cast<cluster::RecoveryOptions::Throttle>(throttle_pick);

  fpga::BoardParams params;
  auto suite = apps::make_suite(params);

  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = apps_per_seq;
  auto sequences = workload::generate_sequences(config, n_seqs_arg, 2025);
  const std::size_t n_seqs = sequences.size();

  // Hazard horizon and censoring point. Lost apps are charged as if they
  // completed exactly at T_eval; completed apps always count their true
  // response, so the metric never rewards dropping work.
  const sim::SimTime t_eval = sim::seconds(120.0);

  const std::vector<double> crash_rates = {0.0, 0.02, 0.05, 0.1};  // per s
  std::vector<Mode> modes = kModes;
  if (mode_pick < kModes.size()) modes = {kModes[mode_pick]};

  // What every cell of either sweep shares: its mode's recovery and
  // checkpoint settings. Checkpointing stays on at rate 0 too: the mode's
  // fault-free baseline carries the snapshot overhead, so the inflation
  // column never hides the checkpoint cost.
  auto mode_options = [&](const Mode& mode) {
    cluster::ClusterOptions options;
    options.recovery.enable_recovery = mode.enable_recovery;
    options.recovery.kill_restart = mode.kill_restart;
    options.checkpoint.enabled = mode.checkpoint;
    options.checkpoint.delta = mode.delta;
    options.checkpoint.interval = sim::ms(ckpt_interval_ms);
    options.checkpoint.granularity = ckpt_granularity;
    return options;
  };

  // Correlated failure-domain sweep (--racks N, optional --rack-rate R):
  // N racks of one OL + one BL board each — every rack spans both pools
  // (a shared PSU feeding the failover pair), so a rack event is the worst
  // case for spare-pool failover: the origin AND its preferred destination
  // die inside one detection window.
  // Rack events fire from the "rack/<domain>" hazard streams at increasing
  // per-rack rates, plus a scripted rack event on rack 0 at t=2s so every
  // nonzero rate lands a guaranteed common-mode hit. The recovery mode
  // runs with the requested throttle (default defer). Results go to
  // ext_fault_resilience_rack.csv; the default independent-hazard sweep
  // above (and its committed CSV) is untouched by this path.
  if (racks > 0) {
    std::vector<double> rack_rates = {0.0, 0.02, 0.05, 0.1};  // per rack-s
    if (rack_rate >= 0.0) rack_rates = {0.0, rack_rate};
    auto rack_scenario = [&](double rate, std::size_t seq) {
      faults::FaultScenario s;
      s.seed = 9000 + static_cast<std::uint64_t>(seq);
      s.horizon = t_eval;
      for (int r = 0; r < racks; ++r) {
        faults::FailureDomain dom;
        dom.name = "r" + std::to_string(r);
        dom.boards = {r, racks + r};  // OL_r and BL_r share the feed
        // Rack 0 is a clean whole-rack loss; later racks stagger their
        // member crashes inside the detection window and give each board
        // a redundant-feed survival chance, so the sweep covers jittered
        // batching and partial-rack outcomes too.
        if (r > 0) {
          dom.jitter = sim::ms(1.0);  // < detection latency (5 ms)
          dom.survival_probability = 0.25;
        }
        s.domains.push_back(std::move(dom));
      }
      if (rate <= 0.0) return s;  // domains alone schedule nothing
      s.hazards.rack_event_per_s = rate;
      s.hazards.link_flap_per_s = rate;
      s.timeline.push_back(
          {sim::seconds(2.0), faults::FaultKind::kRackEvent, 0, -1});
      return s;
    };
    std::cout << "=== Extension: rack-correlated fault resilience (" << racks
              << " racks x 2 boards, " << apps_per_seq << " stress apps, "
              << n_seqs << " sequences pooled; censored at t="
              << sim::to_seconds(t_eval) << "s) ===\n\n";
    auto rack_cells = sweep(
        runner, suite, sequences, rack_rates, modes, t_eval,
        [&](double rate, const Mode& mode, std::size_t seq) {
          cluster::ClusterOptions options = mode_options(mode);
          options.boards_per_config = racks;
          options.faults = rack_scenario(rate, seq);
          // Only recovering modes throttle: no-recovery/kill-restart keep
          // their baseline admission, matching the mode definitions above.
          options.recovery.throttle =
              mode.enable_recovery && !mode.kill_restart
                  ? throttle
                  : cluster::RecoveryOptions::Throttle::kOff;
          return options;
        });
    util::Table rtable({"rack/s", "mode", "done", "censored ms", "inflation",
                        "racks hit", "spare exh", "evac", "restart", "lost",
                        "shed", "MTTR ms", "avail"});
    util::CsvWriter rcsv("ext_fault_resilience_rack.csv");
    rcsv.header({"rack_rate", "mode", "completed", "submitted",
                 "censored_mean_ms", "inflation", "rack_events",
                 "spare_exhausted", "evacuated", "ckpt_restored", "restarted",
                 "lost", "shed", "deferred", "arrivals_shed", "readmissions",
                 "mttr_ms", "availability", "switches"});
    for (std::size_t c = 0; c < rack_cells.size(); ++c) {
      const Cell& cell = rack_cells[c];
      const cluster::RecoveryStats& stats = cell.stats;
      const double rate = rack_rates[c / modes.size()];
      const char* mode = modes[c % modes.size()].name;
      rtable.add_row();
      rtable.cell(rate, 2);
      rtable.cell(mode);
      rtable.cell(std::to_string(cell.done) + "/" +
                  std::to_string(cell.submitted));
      rtable.cell(cell.censored_mean_ms, 1);
      rtable.cell(cell.inflation(), 3);
      rtable.cell(static_cast<std::int64_t>(stats.rack_events));
      rtable.cell(static_cast<std::int64_t>(stats.spare_exhausted));
      rtable.cell(static_cast<std::int64_t>(stats.apps_evacuated));
      rtable.cell(static_cast<std::int64_t>(stats.apps_restarted));
      rtable.cell(static_cast<std::int64_t>(stats.apps_lost));
      rtable.cell(
          static_cast<std::int64_t>(stats.apps_shed + stats.arrivals_shed));
      rtable.cell(stats.mttr_ms_mean(), 1);
      rtable.cell(cell.avail, 4);
      csv_row(rcsv, rate, std::string(mode), cell.done, cell.submitted,
              cell.censored_mean_ms, cell.inflation(), stats.rack_events,
              stats.spare_exhausted, stats.apps_evacuated,
              stats.apps_checkpoint_restored, stats.apps_restarted,
              stats.apps_lost, stats.apps_shed, stats.arrivals_deferred,
              stats.arrivals_shed, stats.readmissions, stats.mttr_ms_mean(),
              cell.avail, cell.switches);
    }
    rcsv.close();
    rtable.print(std::cout);
    std::cout << "\n(every rack feeds one board of each pool, so a rack "
                 "event kills the active board and its failover target "
                 "together; batched detection coalesces the member crashes "
                 "into one recovery action, and when no spare pool survives "
                 "the displaced apps queue for deterministic FIFO "
                 "re-admission while the throttle holds fresh arrivals "
                 "behind them)\n"
                 "Series written to ext_fault_resilience_rack.csv\n";
    if (capture.requested()) {
      // Instrumented replay of the harshest cell (highest rack rate, full
      // recovery + throttle) so the export carries the rack-event and
      // spare-exhaustion instruments.
      cluster::ClusterOptions options;
      options.boards_per_config = racks;
      options.faults = rack_scenario(rack_rates.back(), 0);
      options.recovery.throttle = throttle;
      capture.attach(options);
      (void)metrics::run_cluster(suite, sequences[0], options,
                                 sim::seconds(36000.0), capture.telemetry());
      capture.write(
          {{"bench", "ext_fault_resilience"}, {"mode", "rack-sweep"}});
    }
    return 0;
  }

  auto scenario_for = [&](double rate, std::size_t seq) {
    faults::FaultScenario s;
    if (rate <= 0.0) return s;  // disabled: no fault plane at all
    s.seed = 7000 + static_cast<std::uint64_t>(seq);
    s.hazards.board_crash_per_s = rate;
    s.hazards.link_flap_per_s = rate;
    s.hazards.slot_seu_per_s = 2.0 * rate;
    s.horizon = t_eval;
    // Guaranteed direct hits, identical across modes: the initial pool is
    // Only.Little, so plane board 0 (OL0) is the active board 2 s into the
    // congested phase; the crash fails the cluster over to Big.Little, so
    // by 10 s plane board 1 (BL0) is running the backlog — including
    // Big-slot bundles mid-batch, the case only a checkpoint can save.
    s.timeline.push_back(
        {sim::seconds(2.0), faults::FaultKind::kBoardCrash, 0, -1});
    s.timeline.push_back(
        {sim::seconds(10.0), faults::FaultKind::kBoardCrash, 1, -1});
    return s;
  };

  std::cout << "=== Extension: fault resilience (" << apps_per_seq
            << " stress apps, " << n_seqs
            << " sequences pooled; censored at t="
            << sim::to_seconds(t_eval) << "s) ===\n\n";

  auto cells = sweep(runner, suite, sequences, crash_rates, modes, t_eval,
                     [&](double rate, const Mode& mode, std::size_t seq) {
                       cluster::ClusterOptions options = mode_options(mode);
                       options.faults = scenario_for(rate, seq);
                       options.recovery.throttle = throttle;
                       return options;
                     });

  util::Table table({"crash/s", "mode", "done", "censored ms", "inflation",
                     "evac", "ckpt", "restart", "lost", "MTTR ms", "avail",
                     "ckpt MB"});
  util::CsvWriter csv("ext_fault_resilience.csv");
  csv.header({"crash_rate", "mode", "completed", "submitted",
              "censored_mean_ms", "inflation", "evacuated", "ckpt_restored",
              "restarted", "lost", "mttr_ms", "availability", "ckpt_bases",
              "ckpt_deltas", "ckpt_compactions", "ckpt_base_bytes",
              "ckpt_delta_bytes", "ckpt_total_bytes", "ckpt_dirty_regions",
              "ckpt_skipped_clean", "ckpt_skipped_empty", "switches",
              "migration_precopy_rounds", "migration_precopy_bytes",
              "migration_stopcopy_bytes", "migration_downtime_ms"});
  bool ordering_ok = true;
  std::int64_t total_deferred = 0, total_arrivals_shed = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    const cluster::RecoveryStats& stats = cell.stats;
    const runtime::CheckpointStats& ckpt = cell.ckpt;
    const double rate = crash_rates[c / modes.size()];
    const char* mode = modes[c % modes.size()].name;
    total_deferred += stats.arrivals_deferred;
    total_arrivals_shed += stats.arrivals_shed;
    if (cell.baseline_ms <= 0) ordering_ok = false;
    table.add_row();
    table.cell(rate, 2);
    table.cell(mode);
    table.cell(std::to_string(cell.done) + "/" +
               std::to_string(cell.submitted));
    table.cell(cell.censored_mean_ms, 1);
    table.cell(cell.inflation(), 3);
    table.cell(static_cast<std::int64_t>(stats.apps_evacuated));
    table.cell(static_cast<std::int64_t>(stats.apps_checkpoint_restored));
    table.cell(static_cast<std::int64_t>(stats.apps_restarted));
    table.cell(static_cast<std::int64_t>(stats.apps_lost));
    table.cell(stats.mttr_ms_mean(), 1);
    table.cell(cell.avail, 4);
    table.cell(static_cast<double>(ckpt.total_bytes()) / 1e6, 2);
    csv_row(csv, rate, std::string(mode), cell.done, cell.submitted,
            cell.censored_mean_ms, cell.inflation(), stats.apps_evacuated,
            stats.apps_checkpoint_restored, stats.apps_restarted,
            stats.apps_lost, stats.mttr_ms_mean(), cell.avail, ckpt.bases,
            ckpt.deltas, ckpt.compactions, ckpt.base_bytes, ckpt.delta_bytes,
            ckpt.total_bytes(), ckpt.dirty_regions, ckpt.skipped_clean,
            ckpt.skipped_empty, cell.switches, cell.precopy_rounds,
            cell.precopy_bytes, cell.stopcopy_bytes, cell.downtime_ms);
  }
  csv.close();
  table.print(std::cout);
  if (throttle != cluster::RecoveryOptions::Throttle::kOff) {
    std::cout << "\nAdmission throttle (" << throttles[throttle_pick]
              << "): " << total_deferred << " arrivals deferred behind the "
              << "readmission queue, " << total_arrivals_shed << " shed\n";
  }
  if (!ordering_ok) {
    std::cout << "\nWARNING: rate-0 baseline missing; inflation column "
                 "invalid\n";
  }
  std::cout << "\n(recovery evacuates every app with DDR-resident progress "
               "over the Aurora link and restarts only the rest, so its "
               "censored mean tracks the fault-free run; checkpoint "
               "additionally restores bundled apps to their last periodic "
               "DDR snapshot, bounding the re-run window to one interval; "
               "ckpt-delta keeps the same restore guarantee but copies only "
               "dirtied DDR regions per pass, so its checkpoint volume — "
               "the ckpt MB column — drops well below whole-state at the "
               "same cadence while matching its censored means and MTTR; "
               "note that inflation divides by the mode's own fault-free "
               "baseline, and delta's cheaper passes lower that baseline, "
               "so equal recovery quality reads as an equal-or-slightly-"
               "higher ratio; no-recovery forfeits every app caught on the "
               "crashed board and pays T_eval for each)\n"
               "Series written to ext_fault_resilience.csv\n";

  // Optional instrumented replay of the harshest recovery cell: the run
  // report carries the fault counters, evacuation latency, MTTR and
  // per-board availability, and the trace/journal the crash -> evacuation
  // -> readmission causality.
  if (capture.requested()) {
    // ckpt-delta at the highest rate, with pre-copy switches.
    cluster::ClusterOptions options = mode_options(kModes.back());
    options.faults = scenario_for(crash_rates.back(), 0);
    options.migration.precopy = true;
    capture.attach(options);
    (void)metrics::run_cluster(suite, sequences[0], options,
                               sim::seconds(36000.0), capture.telemetry());
    capture.write(
        {{"bench", "ext_fault_resilience"}, {"mode", "ckpt-delta+precopy"}});
  }
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(argc, argv,
                           {{"apps", "seqs", "recovery", "throttle", "racks",
                             "rack-rate", "ckpt-interval", "ckpt-granularity"},
                            metrics::SweepRunner::kFlags,
                            metrics::Capture::kFlags},
                           run);
}
