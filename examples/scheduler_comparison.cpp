// Runs one workload under all six systems the paper compares (Baseline,
// FCFS, RR, Nimblock, VersaSlot Only.Little, VersaSlot Big.Little) and
// prints mean/P95/P99 response times side by side — a miniature of the
// paper's Fig 5/6 experiment on a single sequence.
//
// Usage: scheduler_comparison [--congestion loose|standard|stress|realtime]
//                             [--apps N] [--seed S]
#include <iostream>
#include <string>

#include "core/versaslot.h"
#include "util/cli.h"

int run(const vs::util::CliArgs& args) {
  using namespace vs;

  const auto congestion =
      static_cast<workload::Congestion>(args.get_choice(
          "congestion", {"loose", "standard", "stress", "realtime"},
          "standard"));
  const auto n_apps = static_cast<int>(args.get_int("apps", 20, 1, 100'000));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed", 7, 0, INT64_MAX));

  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = congestion;
  config.apps_per_sequence = n_apps;
  util::Rng rng(seed);
  workload::Sequence sequence = workload::generate_sequence(config, rng);

  std::cout << "Workload: " << n_apps << " apps, "
            << workload::congestion_name(congestion)
            << " arrivals, seed " << seed << "\n\n";

  util::Table table({"system", "fabric", "mean ms", "P95 ms", "P99 ms",
                     "PRs", "PR-blocked", "preempt", "done"});
  double baseline_mean = 0;
  for (int k = 0; k < metrics::kSystemCount; ++k) {
    auto kind = static_cast<metrics::SystemKind>(k);
    metrics::RunResult r =
        metrics::run_single_board(kind, suite, sequence);
    if (kind == metrics::SystemKind::kBaseline) baseline_mean = r.response.mean;
    table.add_row();
    table.cell(r.system);
    table.cell(metrics::fabric_for(kind).name());
    table.cell(r.response.mean, 1);
    table.cell(r.response.p95, 1);
    table.cell(r.response.p99, 1);
    table.cell(r.counters.pr_requests);
    table.cell(r.counters.pr_blocked);
    table.cell(r.counters.preemptions);
    table.cell(std::to_string(r.completed) + "/" +
               std::to_string(r.submitted));
  }
  table.print(std::cout);
  std::cout << "\n(baseline mean " << util::fmt(baseline_mean, 1)
            << " ms; lower is better)\n";
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(argc, argv, {{"congestion", "apps", "seed"}}, run);
}
