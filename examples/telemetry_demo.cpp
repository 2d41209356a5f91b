// Telemetry demo: run a congested workload through the two-board cluster
// (VersaSlot Big.Little + Only.Little, D_switch loop, Aurora migration)
// with the metrics registry bound and the 50 ms sampler running, then
// render the registry as an ASCII dashboard.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/telemetry_demo
//
// Export machine-readable snapshots next to the dashboard:
//   ./build/examples/telemetry_demo --metrics-out demo
//   # -> demo.prom (Prometheus text), demo.jsonl (time series),
//   #    demo.report.json (run report)
// or equivalently VS_METRICS=demo ./build/examples/telemetry_demo.
// --trace-out FILE and --journal-out FILE add the run's Chrome trace and
// journal (metrics/capture.h).
#include <iostream>

#include "apps/benchmarks.h"
#include "metrics/capture.h"
#include "metrics/experiment.h"
#include "util/cli.h"
#include "util/table.h"
#include "workload/generator.h"

int run(const vs::util::CliArgs& args) {
  using namespace vs;

  metrics::Capture capture(args);

  fpga::BoardParams params;
  auto suite = apps::make_suite(params);

  // Stress arrivals congest the Only.Little board enough to exercise the
  // whole control plane: PCAP queueing, bundled Big bindings, D_switch
  // threshold crossings, and Aurora live migration.
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 30;
  util::Rng rng(/*seed=*/2025);
  workload::Sequence sequence = workload::generate_sequence(config, rng);

  // The dashboard reads the instruments, so telemetry is bound whether or
  // not --metrics-out asks for the files.
  cluster::ClusterOptions options;
  capture.attach(options);
  obs::Telemetry& telemetry = capture.bundle();
  metrics::ClusterRunResult result = metrics::run_cluster(
      suite, sequence, options, sim::seconds(36000.0), &telemetry);

  std::cout << telemetry.dashboard("VersaSlot cluster telemetry") << "\n";

  std::cout << "completed " << result.completed << "/" << result.submitted
            << " apps;  mean response " << util::fmt(result.response.mean, 1)
            << " ms;  " << result.switches.size() << " cross-board switch(es);  "
            << telemetry.sampler().rows()
            << " sampler snapshots @ "
            << sim::to_ms(telemetry.sampler().interval()) << " ms\n";

  capture.write({{"example", "telemetry_demo"}});
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(argc, argv, {vs::metrics::Capture::kFlags}, run);
}
