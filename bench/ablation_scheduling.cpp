// Ablation: the scheduling mechanisms of Algorithm 1 / Algorithm 2.
//
// Switches each VersaSlot design choice off independently and reruns the
// standard and stress workloads:
//   - dual-core PR decoupling (vs single-core, the Fig 2 blocking problem)
//   - redistribution of leftover Little slots
//   - rebinding of waiting Little apps to freed Big slots
// Reported: mean / P95 response time over 5 pooled sequences.
// The (variant × congestion × sequence) grid runs on metrics::SweepRunner
// (--jobs N / VS_JOBS) with deterministic grid-order reduction.
#include <iostream>

#include "apps/benchmarks.h"
#include "metrics/sweep.h"
#include "util/cli.h"
#include "util/table.h"
#include "workload/generator.h"

namespace {

struct Variant {
  const char* label;
  vs::metrics::SystemKind kind;
  bool dual_core;
  bool redistribution;
  bool rebinding;
};

}  // namespace

int run(const vs::util::CliArgs& args) {
  using namespace vs;

  metrics::SweepRunner runner(args);

  fpga::BoardParams params;
  auto suite = apps::make_suite(params);

  const Variant variants[] = {
      {"BL full", metrics::SystemKind::kVersaBigLittle, true, true, true},
      {"BL single-core", metrics::SystemKind::kVersaBigLittle, false, true,
       true},
      {"BL no-redistribution", metrics::SystemKind::kVersaBigLittle, true,
       false, true},
      {"BL no-rebinding", metrics::SystemKind::kVersaBigLittle, true, true,
       false},
      {"BL minimal", metrics::SystemKind::kVersaBigLittle, false, false,
       false},
      {"OL full", metrics::SystemKind::kVersaOnlyLittle, true, true, true},
      {"OL single-core", metrics::SystemKind::kVersaOnlyLittle, false, true,
       true},
      {"OL no-redistribution", metrics::SystemKind::kVersaOnlyLittle, true,
       false, true},
  };

  std::cout << "=== Ablation: dual-core / redistribution / rebinding ===\n"
            << "5 sequences x 20 apps per condition, pooled\n\n";

  for (auto congestion :
       {workload::Congestion::kStandard, workload::Congestion::kStress}) {
    workload::WorkloadConfig config;
    config.congestion = congestion;
    config.apps_per_sequence = 20;
    auto sequences = workload::generate_sequences(config, 5, 2025);

    // One sweep job per (variant, sequence); reduced below in grid order.
    std::vector<metrics::SweepJob> grid;
    for (const Variant& v : variants) {
      metrics::RunOptions options;
      options.vs_options.dual_core = v.dual_core;
      options.vs_options.enable_redistribution = v.redistribution;
      options.vs_options.enable_rebinding = v.rebinding;
      for (const auto& seq : sequences) {
        grid.push_back(metrics::SweepJob{v.kind, seq, options});
      }
    }
    auto cells = runner.run(suite, grid);

    std::cout << "-- " << workload::congestion_name(congestion)
              << " arrivals --\n";
    util::Table table({"variant", "mean ms", "P95 ms", "launch-blocked",
                       "preempt"});
    std::size_t cursor = 0;
    for (const Variant& v : variants) {
      std::vector<double> pooled;
      std::int64_t launch_blocked = 0, preempt = 0;
      for (std::size_t s = 0; s < sequences.size(); ++s) {
        const auto& r = cells[cursor++];
        pooled.insert(pooled.end(), r.response_ms.begin(),
                      r.response_ms.end());
        launch_blocked += r.counters.launch_blocked;
        preempt += r.counters.preemptions;
      }
      util::Summary s = util::summarize(pooled);
      table.add_row();
      table.cell(v.label);
      table.cell(s.mean, 1);
      table.cell(s.p95, 1);
      table.cell(launch_blocked);
      table.cell(preempt);
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "(dual-core decoupling is the paper's task-execution-"
               "blocking fix; disabling it re-introduces launch blocking)\n";
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(argc, argv, {vs::metrics::SweepRunner::kFlags},
                           run);
}
