// Extension: scheduling-quality comparison — slowdown distribution and
// Jain fairness across all seven systems.
//
// The paper argues qualitatively that preemption prevents monopolisation
// and that redistribution avoids slot idling; this bench quantifies both
// through per-app slowdown (response / estimated alone-run time) and the
// fairness of its distribution.
#include <iostream>

#include "apps/benchmarks.h"
#include "metrics/experiment.h"
#include "metrics/quality.h"
#include "util/cli.h"
#include "util/table.h"
#include "workload/generator.h"

int run(const vs::util::CliArgs&) {
  using namespace vs;

  fpga::BoardParams params;
  auto suite = apps::make_suite(params);

  std::cout << "=== Extension: slowdown and fairness across systems ===\n"
            << "3 sequences x 20 apps per condition, averaged\n\n";

  for (auto congestion :
       {workload::Congestion::kStandard, workload::Congestion::kStress}) {
    workload::WorkloadConfig config;
    config.congestion = congestion;
    config.apps_per_sequence = 20;
    auto sequences = workload::generate_sequences(config, 3, 2025);

    std::cout << "-- " << workload::congestion_name(congestion)
              << " arrivals --\n";
    util::Table table({"system", "mean slowdown", "P95 slowdown",
                       "max slowdown", "Jain fairness", "apps/s"});
    for (int k = 0; k < metrics::kSystemCountExtended; ++k) {
      auto kind = static_cast<metrics::SystemKind>(k);
      metrics::QualityReport avg;
      for (const auto& seq : sequences) {
        auto run = metrics::run_single_board(kind, suite, seq);
        auto q = metrics::quality(run, suite, seq, params);
        avg.mean_slowdown += q.mean_slowdown / 3;
        avg.p95_slowdown += q.p95_slowdown / 3;
        avg.max_slowdown += q.max_slowdown / 3;
        avg.jain_fairness += q.jain_fairness / 3;
        avg.throughput_apps_per_s += q.throughput_apps_per_s / 3;
      }
      table.add_row();
      table.cell(metrics::system_name(kind));
      table.cell(avg.mean_slowdown, 2);
      table.cell(avg.p95_slowdown, 2);
      table.cell(avg.max_slowdown, 2);
      table.cell(avg.jain_fairness, 3);
      table.cell(avg.throughput_apps_per_s, 2);
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "(slowdown = response / estimated unshared run time; Jain "
               "index near 1 means every app suffered equally)\n";
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(argc, argv, {}, run);
}
