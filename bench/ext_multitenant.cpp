// Extension: multi-tenant serving plane at cluster scale.
//
// Three SLO classes share the cluster under open-loop traffic:
//
//   interactive -- diurnal-modulated arrivals, tight latency target,
//                  drains first (priority 0), 3x fair-share weight
//   standard    -- Poisson arrivals, mid target, priority 1
//   batch       -- MMPP-bursty arrivals, loose target, priority 2,
//                  quota-capped so bursts defer instead of flooding
//
// The sweep scales the board pool across --boards points (total boards =
// 2 x boards/config: both fabric pools serve; switching is off so capacity
// is flat) against arrival-rate multipliers, and reports per-class SLO
// attainment, goodput (SLO-attained completions per second), and the
// p50/p99/p99.9 response tail. Every admission and routing decision runs
// in simulation events over a seed-derived trace, so the table and
// ext_multitenant.csv are bit-identical for any --jobs worker count.
//
// Capture (metrics/capture.h) re-runs the largest cell with the vs_tenant_*
// series (admitted/rejected/deferred/completed/slo_miss counters per
// tenant, response histograms per class), its trace and its journal.
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "apps/benchmarks.h"
#include "metrics/capture.h"
#include "metrics/sweep.h"
#include "serve/serve.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/table.h"

namespace {

/// The tenant mix for one cell: per-class base rates scale with the board
/// pool (open-loop load tracks capacity) and the rate multiplier.
vs::serve::ServeConfig make_config(int boards_per_config, double rate_mult,
                                   double horizon_s) {
  using namespace vs;
  serve::ServeConfig config;
  config.seed = 2025;
  config.horizon = sim::seconds(horizon_s);
  // Cluster-wide admission cap of ~1.5 jobs per board: beyond it arrivals
  // queue at the admission controller (where weight and priority decide
  // who drains first) instead of piling onto board queues where they
  // would wreck every class's tail alike.
  config.max_inflight = 3 * boards_per_config;
  // Targets sit just above each class's lightly-loaded service time (a
  // 5-10 item app needs ~0.9 s of board time), so attainment is high at
  // rate_mult 0.5 and degrades measurably once the cluster saturates.
  config.classes = {
      {"interactive", sim::ms(2500.0), 0},
      {"standard", sim::ms(4000.0), 1},
      {"batch", sim::ms(12000.0), 2},
  };
  // Per-board-pair base load. A lightly loaded board turns a small-batch
  // app around in a few hundred ms (fig5's loose regime ~1 s at 0.2
  // apps/s/board with big batches), so ~0.5 apps/s per board pair at
  // rate_mult 1.0 keeps the pools busy without saturating; 2.0 pushes
  // the cluster past capacity and the admission controller has to choose.
  const double scale = rate_mult * static_cast<double>(boards_per_config);

  serve::Tenant interactive;
  interactive.name = "interactive";
  interactive.slo_class = 0;
  interactive.weight = 3.0;
  interactive.arrivals.kind = workload::ArrivalKind::kDiurnal;
  interactive.arrivals.rate_per_s = 0.25 * scale;
  interactive.arrivals.diurnal_depth = 0.6;
  interactive.arrivals.diurnal_period_s = horizon_s / 2.0;
  interactive.min_batch = 5;
  interactive.max_batch = 10;
  config.tenants.push_back(interactive);

  serve::Tenant standard;
  standard.name = "standard";
  standard.slo_class = 1;
  standard.weight = 2.0;
  standard.arrivals.kind = workload::ArrivalKind::kPoisson;
  standard.arrivals.rate_per_s = 0.15 * scale;
  standard.min_batch = 8;
  standard.max_batch = 20;
  config.tenants.push_back(standard);

  serve::Tenant batch;
  batch.name = "batch";
  batch.slo_class = 2;
  batch.weight = 1.0;
  batch.quota = boards_per_config;           // bursts defer, not flood
  batch.defer_limit = boards_per_config;     // ...and reject past backlog
  batch.arrivals.kind = workload::ArrivalKind::kMmpp;
  batch.arrivals.rate_per_s = 0.05 * scale;
  batch.arrivals.burst_rate_per_s = 0.6 * scale;
  batch.arrivals.burst_on_s = 2.0;
  batch.arrivals.burst_off_s = 6.0;
  batch.min_batch = 15;
  batch.max_batch = 30;
  config.tenants.push_back(batch);
  return config;
}

}  // namespace

int run(const vs::util::CliArgs& args) {
  using namespace vs;

  metrics::SweepRunner runner(args);
  const double horizon_s = args.get_double("horizon", 20.0, 1.0, 3600.0);
  metrics::Capture capture(args);

  fpga::BoardParams params;
  auto suite = apps::make_suite(params);

  // Board-pool points (per fabric configuration; total = 2x) and the
  // arrival-rate multipliers swept against each. --boards N / --rate R
  // restrict the sweep to one point for smokes.
  std::vector<int> board_counts = {8, 64, 256};  // 16, 128, 512 total
  std::vector<double> rate_mults = {0.5, 1.0, 2.0};
  if (args.has("boards")) {
    board_counts = {static_cast<int>(args.get_int("boards", 8, 1, 1024))};
  }
  if (args.has("rate")) {
    rate_mults = {args.get_double("rate", 1.0, 0.01, 100.0)};
  }

  std::cout << "=== Extension: multi-tenant serving plane ("
            << sim::to_seconds(sim::seconds(horizon_s))
            << "s open-loop horizon, 3 SLO classes) ===\n\n";

  auto cells = runner.map<serve::ServeResult>(
      board_counts.size() * rate_mults.size(), [&](std::size_t i) {
        const int boards = board_counts[i / rate_mults.size()];
        const double rate = rate_mults[i % rate_mults.size()];
        cluster::ClusterOptions options;
        options.boards_per_config = boards;
        // Flat capacity: both pools serve, no D_switch churn — the sweep
        // isolates admission + routing behaviour.
        options.enable_switching = false;
        serve::ServeConfig config =
            make_config(boards, rate, horizon_s);
        config.rebalance = true;
        return serve::run_serve(suite, config, options);
      });

  util::Table table({"boards", "rate", "class", "arrivals", "admit",
                     "reject", "done", "attain", "goodput/s", "p50 ms",
                     "p99 ms", "p99.9 ms"});
  util::CsvWriter csv("ext_multitenant.csv");
  csv.header({"boards_total", "rate_mult", "slo_class", "arrivals",
              "admitted", "deferred", "rejected", "completed", "slo_miss",
              "attainment", "goodput_per_s", "p50_ms", "p95_ms", "p99_ms",
              "p999_ms"});
  std::size_t cursor = 0;
  for (int boards : board_counts) {
    for (double rate : rate_mults) {
      const serve::ServeResult& r = cells[cursor++];
      for (std::size_t c = 0; c < r.classes.size(); ++c) {
        const serve::ClassResult& cls = r.classes[c];
        std::int64_t arrivals = 0, admitted = 0, deferred = 0, rejected = 0;
        for (const serve::TenantResult& t : r.tenants) {
          if (static_cast<std::size_t>(t.slo_class) != c) continue;
          arrivals += t.submitted;
          admitted += t.admitted;
          deferred += t.deferred;
          rejected += t.rejected;
        }
        table.add_row();
        table.cell(static_cast<std::int64_t>(2 * boards));
        table.cell(rate, 1);
        table.cell(cls.name);
        table.cell(arrivals);
        table.cell(admitted);
        table.cell(rejected);
        table.cell(cls.completed);
        table.cell(cls.attainment, 3);
        table.cell(cls.goodput_per_s, 2);
        table.cell(cls.response_ms.p50, 1);
        table.cell(cls.response_ms.p99, 1);
        table.cell(cls.response_ms.p999, 1);
        csv.begin_row();
        csv.field(2 * boards);
        csv.field(rate);
        csv.field(cls.name);
        csv.field(arrivals);
        csv.field(admitted);
        csv.field(deferred);
        csv.field(rejected);
        csv.field(cls.completed);
        csv.field(cls.slo_miss);
        csv.field(cls.attainment);
        csv.field(cls.goodput_per_s);
        csv.field(cls.response_ms.p50);
        csv.field(cls.response_ms.p95);
        csv.field(cls.response_ms.p99);
        csv.field(cls.response_ms.p999);
        csv.end_row();
      }
    }
  }
  csv.close();
  table.print(std::cout);
  std::cout << "\n(the weighted-deficit admission controller holds the "
               "interactive class's attainment as the rate multiplier "
               "climbs: its 3x weight and priority-0 queue drain first "
               "while the quota-capped batch class absorbs the deferrals; "
               "goodput counts only SLO-attained completions, so a class "
               "that admits more than it can serve in time gains nothing)\n"
               "Series written to ext_multitenant.csv\n";

  // Optional instrumented replay of the largest swept cell.
  if (capture.requested()) {
    cluster::ClusterOptions options;
    options.boards_per_config = board_counts.back();
    options.enable_switching = false;
    capture.attach(options);
    serve::ServeConfig config =
        make_config(board_counts.back(), rate_mults.back(), horizon_s);
    config.rebalance = true;
    (void)serve::run_serve(suite, config, options, sim::seconds(36000.0),
                           capture.telemetry());
    capture.write({{"bench", "ext_multitenant"}});
  }
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(argc, argv,
                           {{"boards", "rate", "horizon"},
                            vs::metrics::SweepRunner::kFlags,
                            vs::metrics::Capture::kFlags},
                           run);
}
