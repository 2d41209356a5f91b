// Quickstart: submit a small workload to a Big.Little board running the
// VersaSlot scheduler and print per-application response times.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "core/versaslot.h"
#include "util/cli.h"

int run(const vs::util::CliArgs&) {
  using namespace vs;

  // 1. Describe the board (ZCU216-like defaults) and build the benchmark
  //    suite: 3DR, LeNet, IC, AlexNet, OpticalFlow.
  fpga::BoardParams params;
  std::vector<apps::AppSpec> suite = apps::make_suite(params);

  // 2. Generate a workload: 8 applications, Standard arrival intervals
  //    (uniform 1500-2000 ms), batch sizes 5-30.
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStandard;
  config.apps_per_sequence = 8;
  util::Rng rng(/*seed=*/2025);
  workload::Sequence sequence = workload::generate_sequence(config, rng);

  // 3. Run it under the VersaSlot Big.Little scheduler.
  metrics::RunResult result = metrics::run_single_board(
      metrics::SystemKind::kVersaBigLittle, suite, sequence);

  // 4. Report.
  std::cout << "VersaSlot quickstart — " << result.system << " on "
            << fabric_for(metrics::SystemKind::kVersaBigLittle).name()
            << " fabric\n\n";
  std::vector<double> by_id(sequence.size(), -1.0);
  for (const auto& c : result.apps) {
    by_id[static_cast<std::size_t>(c.app_id)] = c.response_ms();
  }
  util::Table table({"app", "batch", "arrival", "response"});
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const apps::AppArrival& a = sequence[i];
    table.add_row();
    table.cell(suite[static_cast<std::size_t>(a.spec_index)].name);
    table.cell(static_cast<long long>(a.batch));
    table.cell(util::fmt_duration_ns(a.arrival));
    table.cell(by_id[i] >= 0 ? util::fmt(by_id[i], 1) + " ms"
                             : std::string("-"));
  }
  table.print(std::cout);

  std::cout << "\ncompleted " << result.completed << "/" << result.submitted
            << " apps;  mean response " << util::fmt(result.response.mean, 1)
            << " ms;  P95 " << util::fmt(result.response.p95, 1)
            << " ms\nPR ops " << result.counters.pr_requests << " ("
            << result.counters.pr_blocked
            << " queued behind another);  items executed "
            << result.counters.items_executed << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(argc, argv, {}, run);
}
