// Extension: cluster scaling.
//
// The paper evaluates a two-board cluster (one active + one spare). This
// bench scales the per-configuration board pool from 1 to 4 with the
// least-loaded dispatcher and measures how mean/P95 response under a
// saturating workload responds — quantifying how far the cross-board
// switching architecture carries before plain horizontal scaling dominates.
// The (boards × switching × sequence) cluster grid runs on
// metrics::SweepRunner::map (--jobs N / VS_JOBS) with index-keyed results,
// so the table is identical for any worker count.
#include <iostream>
#include <iterator>

#include "apps/benchmarks.h"
#include "metrics/sweep.h"
#include "util/cli.h"
#include "util/table.h"
#include "workload/generator.h"

int run(const vs::util::CliArgs& args) {
  using namespace vs;

  metrics::SweepRunner runner(args);
  const int apps_per_seq =
      static_cast<int>(args.get_int("apps", 60, 1, 100'000));
  const int n_seqs_arg = static_cast<int>(args.get_int("seqs", 3, 1, 1000));

  fpga::BoardParams params;
  auto suite = apps::make_suite(params);

  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = apps_per_seq;
  auto sequences = workload::generate_sequences(config, n_seqs_arg, 2025);

  std::cout << "=== Extension: cluster scaling (" << apps_per_seq
            << " stress apps, " << n_seqs_arg << " sequences pooled) ===\n\n";
  util::Table table({"boards/config", "switching", "mean ms", "P95 ms",
                     "switches", "done"});
  // Flat (boards, switching, sequence) grid; each cell is an independent
  // cluster replica keyed by index for the ordered reduction below.
  const int board_counts[] = {1, 2, 3, 4};
  const bool switch_modes[] = {false, true};
  const std::size_t n_seqs = sequences.size();
  auto cells = runner.map<metrics::ClusterRunResult>(
      std::size(board_counts) * std::size(switch_modes) * n_seqs,
      [&](std::size_t i) {
        cluster::ClusterOptions options;
        options.boards_per_config =
            board_counts[i / (std::size(switch_modes) * n_seqs)];
        options.enable_switching =
            switch_modes[(i / n_seqs) % std::size(switch_modes)];
        return metrics::run_cluster(suite, sequences[i % n_seqs], options);
      });
  std::size_t cursor = 0;
  for (int boards : board_counts) {
    for (bool switching : switch_modes) {
      std::vector<double> pooled;
      int switches = 0, done = 0, submitted = 0;
      for (std::size_t si = 0; si < n_seqs; ++si) {
        const auto& r = cells[cursor++];
        pooled.insert(pooled.end(), r.response_ms.begin(),
                      r.response_ms.end());
        switches += static_cast<int>(r.switches.size());
        done += r.completed;
        submitted += r.submitted;
      }
      util::Summary s = util::summarize(pooled);
      table.add_row();
      table.cell(static_cast<std::int64_t>(boards));
      table.cell(switching ? "on" : "off");
      table.cell(s.mean, 1);
      table.cell(s.p95, 1);
      table.cell(static_cast<std::int64_t>(switches));
      table.cell(std::to_string(done) + "/" + std::to_string(submitted));
    }
  }
  table.print(std::cout);
  std::cout << "\n(switching compounds with horizontal scaling: a switch "
               "activates the rested spare pool while the origin boards "
               "drain their in-flight apps, so both pools chew through the "
               "backlog in parallel on top of the Big.Little efficiency "
               "gain)\n";
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(
      argc, argv, {{"apps", "seqs"}, vs::metrics::SweepRunner::kFlags}, run);
}
