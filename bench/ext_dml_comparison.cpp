// Extension: the DML scheduler (TC'22, the paper's ref [14]) alongside the
// six Fig 5 systems. DML contributed the ILP slot-count allocation that
// Nimblock and VersaSlot reuse; adding it shows the lineage:
// FCFS/RR (naive) -> DML (pipelined, backfilled) -> Nimblock (+priority,
// +preemption) -> VersaSlot (+dual-core, +Big.Little).
#include <iostream>

#include "apps/benchmarks.h"
#include "metrics/experiment.h"
#include "util/cli.h"
#include "util/table.h"
#include "workload/generator.h"

int run(const vs::util::CliArgs&) {
  using namespace vs;

  fpga::BoardParams params;
  auto suite = apps::make_suite(params);

  std::cout << "=== Extension: seven-system comparison including DML "
               "===\n5 sequences x 20 apps per condition\n\n";

  for (int ci = 0; ci < workload::kCongestionCount; ++ci) {
    auto congestion = static_cast<workload::Congestion>(ci);
    workload::WorkloadConfig config;
    config.congestion = congestion;
    config.apps_per_sequence = 20;
    auto sequences = workload::generate_sequences(config, 5, 2025);

    std::cout << "-- " << workload::congestion_name(congestion)
              << " arrivals --\n";
    util::Table table({"system", "mean ms", "P95 ms", "P99 ms"});
    for (int k = 0; k < metrics::kSystemCountExtended; ++k) {
      auto agg = metrics::aggregate(static_cast<metrics::SystemKind>(k),
                                    suite, sequences);
      table.add_row();
      table.cell(agg.system);
      table.cell(agg.mean_response_ms, 1);
      table.cell(agg.p95_ms, 1);
      table.cell(agg.p99_ms, 1);
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "(expected ordering: DML between the naive single-slot "
               "systems and Nimblock)\n";
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(argc, argv, {}, run);
}
