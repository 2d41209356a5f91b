// Fig 8 reproduction: cross-board switching with live migration.
//
// Three long workloads of 80 applications each run on the two-board
// cluster. Left panel: the D_switch trace (recomputed every 4 application
// updates) with the Schmitt thresholds; a threshold crossing triggers the
// Only.Little -> Big.Little switch. Right panel: average response time with
// switching versus execution solely on the Only.Little board, plus the
// average switching (migration) overhead — the paper reports up to ~3x
// response-time reduction at 1.13 ms average overhead.
//
// Workload note (documented substitution, DESIGN.md §4): the paper uses
// "standard arrival intervals" on its testbed, where that load level
// saturates an Only.Little board. Our calibrated board absorbs standard
// arrivals without sustained backlog, so the long workloads here use a
// congested phase (stress-interval arrivals for the first 60 apps) followed
// by a relieved phase (standard intervals), reproducing the same
// congestion-then-relief trajectory the paper's figure shows.
#include <iostream>
#include <vector>

#include "apps/benchmarks.h"
#include "metrics/capture.h"
#include "metrics/experiment.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/table.h"
#include "workload/generator.h"

#include "workload/patterns.h"

int run(const vs::util::CliArgs& args) {
  using namespace vs;

  // Capture (metrics/capture.h) attaches to the first workload's
  // with-switching run: the run whose D_switch loop and Aurora migrations
  // the figure is about. The committed figure series never read it.
  metrics::Capture capture(args);
  // Round cap for the pre-copy comparison runs; the committed figure
  // series never read it.
  const int precopy_rounds =
      static_cast<int>(args.get_int("precopy-rounds", 4, 1, 64));

  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  cluster::ClusterOptions options;

  std::cout << "=== Fig 8: D_switch and response time with cross-board "
               "switching ===\nthresholds T1=" << options.t1
            << " T2=" << options.t2 << ", recalc every "
            << core::SwitchLoop::kPeriod << " app updates\n\n";

  util::CsvWriter trace_csv("fig8_dswitch_trace.csv");
  trace_csv.header({"workload", "t_s", "dswitch", "blocked", "prs", "apps",
                    "batch"});
  util::CsvWriter summary_csv("fig8_summary.csv");
  summary_csv.header({"workload", "mean_with_switching_ms",
                      "mean_only_little_ms", "improvement", "switches",
                      "avg_overhead_ms"});
  // Downtime breakdown (whole-state vs iterative pre-copy), one row per
  // switch event. Filled by the comparison pass after the figure runs.
  util::CsvWriter downtime_csv("fig8_downtime.csv");
  downtime_csv.header({"workload", "mode", "switch", "rounds",
                       "precopy_bytes", "stopcopy_bytes", "total_bytes",
                       "downtime_ms", "overhead_ms"});

  double total_overhead_ms = 0;
  int total_switches = 0;
  double best_improvement = 0;
  std::vector<std::vector<cluster::SwitchEvent>> whole_events;

  for (int w = 0; w < 3; ++w) {
    workload::Sequence seq = workload::fig8_long_workload(3000 + w);

    cluster::ClusterOptions run_options = options;
    if (w == 0) capture.attach(run_options);
    metrics::ClusterRunResult with_sw = metrics::run_cluster(
        suite, seq, run_options, sim::seconds(36000.0),
        w == 0 ? capture.telemetry() : nullptr);
    cluster::ClusterOptions off = options;
    off.enable_switching = false;
    metrics::ClusterRunResult only_little =
        metrics::run_cluster(suite, seq, off);

    for (const core::DSwitchSample& s : with_sw.dswitch_trace) {
      trace_csv.begin_row();
      trace_csv.field(static_cast<long long>(w));
      trace_csv.field(sim::to_seconds(s.time));
      trace_csv.field(s.value);
      trace_csv.field(s.blocked);
      trace_csv.field(s.prs);
      trace_csv.field(static_cast<long long>(s.apps));
      trace_csv.field(s.batch);
      trace_csv.end_row();
    }

    double overhead_ms = 0;
    for (const cluster::SwitchEvent& e : with_sw.switches) {
      overhead_ms += sim::to_ms(e.overhead);
    }
    double avg_overhead =
        with_sw.switches.empty()
            ? 0
            : overhead_ms / static_cast<double>(with_sw.switches.size());
    double improvement =
        only_little.response.mean / std::max(with_sw.response.mean, 1e-9);
    best_improvement = std::max(best_improvement, improvement);
    total_overhead_ms += overhead_ms;
    total_switches += static_cast<int>(with_sw.switches.size());
    whole_events.push_back(with_sw.switches);

    std::cout << "-- workload " << w + 1 << " (seed " << 3000 + w
              << ") --\n";
    // Compact D_switch sparkline over time.
    std::cout << "  D_switch trace (" << with_sw.dswitch_trace.size()
              << " samples): ";
    for (std::size_t i = 0; i < with_sw.dswitch_trace.size();
         i += std::max<std::size_t>(1, with_sw.dswitch_trace.size() / 40)) {
      double v = with_sw.dswitch_trace[i].value;
      const char* glyph = v >= options.t1  ? "#"
                          : v > options.t2 ? "+"
                                           : ".";
      std::cout << glyph;
    }
    std::cout << "  (#: >=T1, +: buffer zone, .: <=T2)\n";
    for (const cluster::SwitchEvent& e : with_sw.switches) {
      std::cout << "  switch @ " << util::fmt(sim::to_seconds(e.time), 1)
                << "s -> "
                << (e.to == core::SwitchLoop::Config::kBigLittle
                        ? "Big.Little"
                        : "Only.Little")
                << " (D=" << util::fmt(e.dswitch, 3) << ", "
                << e.apps_migrated << " apps, "
                << util::fmt_duration_ns(e.overhead) << ")\n";
    }
    std::cout << "  mean response: with switching "
              << util::fmt(with_sw.response.mean, 1) << " ms ("
              << with_sw.completed << "/" << with_sw.submitted
              << "), Only.Little "
              << util::fmt(only_little.response.mean, 1) << " ms -> "
              << util::fmt(improvement, 2) << "x reduction\n\n";

    summary_csv.row({std::to_string(w), util::fmt(with_sw.response.mean, 3),
                     util::fmt(only_little.response.mean, 3),
                     util::fmt(improvement, 4),
                     std::to_string(with_sw.switches.size()),
                     util::fmt(avg_overhead, 4)});
  }

  std::cout << "Anchors (paper -> measured):\n"
            << "  response-time reduction (up to): paper ~3x -> "
            << util::fmt(best_improvement, 2) << "x\n"
            << "  average switching overhead: paper 1.13 ms -> "
            << util::fmt(total_switches ? total_overhead_ms / total_switches
                                        : 0,
                         2)
            << " ms over " << total_switches << " switches\n\n";

  // Pre-copy comparison (beyond the paper's figure): re-run each workload
  // with iterative pre-copy migration enabled and put its stop-and-copy
  // downtime next to the whole-state switches above. Runs after — and
  // independently of — the figure series, which stay byte-identical.
  std::cout << "-- pre-copy live migration (round cap " << precopy_rounds
            << ") --\n";
  auto downtime_row = [&](int w, const char* mode, int index,
                          const cluster::SwitchEvent& e) {
    downtime_csv.begin_row();
    downtime_csv.field(static_cast<long long>(w));
    downtime_csv.field(std::string(mode));
    downtime_csv.field(static_cast<long long>(index));
    downtime_csv.field(static_cast<long long>(e.precopy_rounds));
    downtime_csv.field(e.precopy_bytes);
    downtime_csv.field(e.stopcopy_bytes);
    downtime_csv.field(e.bytes);
    downtime_csv.field(sim::to_ms(e.downtime));
    downtime_csv.field(sim::to_ms(e.overhead));
    downtime_csv.end_row();
  };
  double whole_down_ms = 0, pre_down_ms = 0;
  int whole_n = 0, pre_n = 0, pre_rounds_total = 0;
  for (int w = 0; w < 3; ++w) {
    workload::Sequence seq = workload::fig8_long_workload(3000 + w);
    cluster::ClusterOptions pre = options;
    pre.migration.precopy = true;
    pre.migration.max_rounds = precopy_rounds;
    metrics::ClusterRunResult r = metrics::run_cluster(suite, seq, pre);
    int index = 0;
    for (const cluster::SwitchEvent& e : whole_events[static_cast<std::size_t>(
             w)]) {
      downtime_row(w, "whole", index++, e);
      whole_down_ms += sim::to_ms(e.downtime);
      ++whole_n;
    }
    index = 0;
    for (const cluster::SwitchEvent& e : r.switches) {
      downtime_row(w, "precopy", index++, e);
      pre_down_ms += sim::to_ms(e.downtime);
      pre_rounds_total += e.precopy_rounds;
      ++pre_n;
    }
    std::cout << "  workload " << w + 1 << ": " << r.switches.size()
              << " pre-copy switches, mean response "
              << util::fmt(r.response.mean, 1) << " ms\n";
  }
  trace_csv.close();
  summary_csv.close();
  downtime_csv.close();
  std::cout << "  avg stop-and-copy downtime: whole-state "
            << util::fmt(whole_n ? whole_down_ms / whole_n : 0, 3)
            << " ms -> pre-copy "
            << util::fmt(pre_n ? pre_down_ms / pre_n : 0, 3) << " ms ("
            << util::fmt(pre_n ? static_cast<double>(pre_rounds_total) / pre_n
                                : 0,
                         1)
            << " rounds streamed per switch while origins kept executing)\n"
            << "\nSeries written to fig8_dswitch_trace.csv / "
               "fig8_summary.csv / fig8_downtime.csv\n";

  capture.write({{"figure", "fig8"}, {"workload", "0"}});
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(
      argc, argv, {{"precopy-rounds"}, vs::metrics::Capture::kFlags}, run);
}
