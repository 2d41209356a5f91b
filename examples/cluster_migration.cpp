// Cross-board switching demo (the paper's §III-D / Fig 8 machinery): a long
// workload runs on a two-board cluster; the D_switch metric is sampled every
// 4 candidate-queue updates and fed into the Schmitt-trigger switch loop.
// When it crosses T1 the cluster live-migrates waiting applications over the
// Aurora link from the Only.Little board to the pre-warmed Big.Little board.
//
// Usage: cluster_migration [--apps N] [--seed S]
#include <iostream>

#include "core/versaslot.h"
#include "util/cli.h"

int run(const vs::util::CliArgs& args) {
  using namespace vs;

  const auto n_apps = static_cast<int>(args.get_int("apps", 80, 1, 100'000));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed", 11, 0, INT64_MAX));

  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = n_apps;
  util::Rng rng(seed);
  workload::Sequence sequence = workload::generate_sequence(config, rng);

  cluster::ClusterOptions options;
  metrics::ClusterRunResult with_switching =
      metrics::run_cluster(suite, sequence, options);

  cluster::ClusterOptions no_switching = options;
  no_switching.enable_switching = false;
  metrics::ClusterRunResult only_little =
      metrics::run_cluster(suite, sequence, no_switching);

  std::cout << "Cluster live-migration demo — " << n_apps
            << " apps, Stress arrivals, T1=" << options.t1
            << " T2=" << options.t2 << "\n\nD_switch trace (every "
            << options.dswitch_period << " queue updates):\n";
  util::Table trace({"t (s)", "D_switch", "blocked", "PRs", "apps",
                     "batch"});
  for (const core::DSwitchSample& s : with_switching.dswitch_trace) {
    trace.add_row();
    trace.cell(sim::to_seconds(s.time), 1);
    trace.cell(s.value, 3);
    trace.cell(s.blocked);
    trace.cell(s.prs);
    trace.cell(s.apps);
    trace.cell(s.batch);
  }
  trace.print(std::cout);

  std::cout << "\nSwitch events:\n";
  if (with_switching.switches.empty()) {
    std::cout << "  (none triggered)\n";
  }
  for (const cluster::SwitchEvent& e : with_switching.switches) {
    std::cout << "  t=" << util::fmt(sim::to_seconds(e.time), 2) << "s  -> "
              << (e.to == core::SwitchLoop::Config::kBigLittle
                      ? "Big.Little"
                      : "Only.Little")
              << "  D=" << util::fmt(e.dswitch, 3) << "  migrated "
              << e.apps_migrated << " apps (" << e.bytes << " B) in "
              << util::fmt_duration_ns(e.overhead) << "\n";
  }

  std::cout << "\nResponse time:  with switching mean "
            << util::fmt(with_switching.response.mean, 1) << " ms ("
            << with_switching.completed << "/" << with_switching.submitted
            << " done);  Only.Little-only mean "
            << util::fmt(only_little.response.mean, 1) << " ms ("
            << only_little.completed << "/" << only_little.submitted
            << " done);  improvement "
            << util::fmt(only_little.response.mean /
                             std::max(with_switching.response.mean, 1e-9),
                         2)
            << "x\n";
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(argc, argv, {{"apps", "seed"}}, run);
}
