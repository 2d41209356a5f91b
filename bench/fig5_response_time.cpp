// Fig 5 reproduction: relative average response-time reduction under the
// four congestion conditions (Loose / Standard / Stress / Real-time),
// normalised to the exclusive-multiplexing baseline, for all six systems.
//
// Setup mirrors §IV: 10 randomly generated sequences of 20 applications
// each, batch sizes U[5,30], drawn from the five-app suite. Reported values
// are means over the pooled per-app response times of the 10 sequences.
//
// The (congestion × system × sequence) grid runs on metrics::SweepRunner:
// every replica is an independent simulator, results are reduced in fixed
// grid order, so the tables and CSV are byte-identical for any --jobs N
// (also settable via VS_JOBS; defaults to hardware concurrency).
//
// Output: one table per congestion condition (absolute ms and the paper's
// "x-times lower than baseline" normalisation) plus the paper's headline
// anchor ratios; series also exported to fig5_response_time.csv.
#include <iostream>

#include "apps/benchmarks.h"
#include "metrics/capture.h"
#include "metrics/sweep.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/table.h"
#include "workload/generator.h"

namespace {

constexpr std::uint64_t kMasterSeed = 2025;
constexpr int kSequences = 10;
constexpr int kAppsPerSequence = 20;

}  // namespace

int run(const vs::util::CliArgs& args) {
  using namespace vs;

  metrics::SweepRunner runner(args);
  metrics::Capture capture(args);

  fpga::BoardParams params;
  auto suite = apps::make_suite(params);

  std::cout << "=== Fig 5: relative response time reduction vs baseline ===\n"
            << kSequences << " sequences x " << kAppsPerSequence
            << " apps, batch U[5,30], master seed " << kMasterSeed << " ("
            << runner.jobs() << " worker thread(s))\n\n";

  // One job per (congestion, system, sequence) cell, in that order; the
  // reductions below index the same order, so output is independent of
  // the worker count.
  std::vector<metrics::SweepJob> grid;
  for (int ci = 0; ci < workload::kCongestionCount; ++ci) {
    workload::WorkloadConfig config;
    config.congestion = static_cast<workload::Congestion>(ci);
    config.apps_per_sequence = kAppsPerSequence;
    auto sequences =
        workload::generate_sequences(config, kSequences, kMasterSeed);
    for (int k = 0; k < metrics::kSystemCount; ++k) {
      for (const auto& seq : sequences) {
        grid.push_back({static_cast<metrics::SystemKind>(k), seq, {}});
      }
    }
  }
  auto cells = runner.run(suite, grid);

  util::CsvWriter csv("fig5_response_time.csv");
  csv.header({"congestion", "system", "mean_ms", "reduction_vs_baseline",
              "completed"});

  double bl_best_reduction = 0;
  double bl_vs_nimblock_best = 0;
  double bl_vs_ol_best = 0;

  std::size_t cursor = 0;
  for (int ci = 0; ci < workload::kCongestionCount; ++ci) {
    auto congestion = static_cast<workload::Congestion>(ci);

    std::vector<metrics::AggregateResult> results;
    std::vector<util::RunningStats> seq_means(
        static_cast<std::size_t>(metrics::kSystemCount));
    std::vector<int> sys_completed(
        static_cast<std::size_t>(metrics::kSystemCount), 0);
    for (int k = 0; k < metrics::kSystemCount; ++k) {
      auto kind = static_cast<metrics::SystemKind>(k);
      std::vector<metrics::RunResult> per_seq(
          cells.begin() + static_cast<std::ptrdiff_t>(cursor),
          cells.begin() + static_cast<std::ptrdiff_t>(cursor + kSequences));
      cursor += kSequences;
      results.push_back(metrics::reduce_aggregate(kind, per_seq));
      // Per-sequence means for the between-sequence spread.
      for (const auto& r : per_seq) {
        seq_means[static_cast<std::size_t>(k)].add(r.response.mean);
        sys_completed[static_cast<std::size_t>(k)] += r.completed;
      }
    }
    double baseline_mean = results[0].mean_response_ms;
    double nimblock_mean = results[3].mean_response_ms;
    double ol_mean = results[4].mean_response_ms;
    double bl_mean = results[5].mean_response_ms;

    std::cout << "-- " << workload::congestion_name(congestion)
              << " arrivals --\n";
    util::Table table({"system", "mean ms", "+/- seq sd", "vs baseline"});
    for (std::size_t k = 0; k < results.size(); ++k) {
      const auto& r = results[k];
      double reduction = baseline_mean / r.mean_response_ms;
      table.add_row();
      table.cell(r.system);
      table.cell(r.mean_response_ms, 1);
      table.cell(seq_means[k].stddev(), 1);
      table.cell(util::fmt(reduction, 2) + "x");
      csv.row({workload::congestion_name(congestion), r.system,
               util::fmt(r.mean_response_ms, 3), util::fmt(reduction, 4),
               std::to_string(sys_completed[k])});
    }
    table.print(std::cout);
    std::cout << "\n";

    bl_best_reduction = std::max(bl_best_reduction, baseline_mean / bl_mean);
    bl_vs_nimblock_best =
        std::max(bl_vs_nimblock_best, nimblock_mean / bl_mean);
    bl_vs_ol_best = std::max(bl_vs_ol_best, ol_mean / bl_mean);
  }
  csv.close();

  std::cout << "Headline anchors (paper -> measured):\n"
            << "  Big.Little vs Baseline (up to): paper 13.66x -> "
            << util::fmt(bl_best_reduction, 2) << "x\n"
            << "  Big.Little vs Nimblock (up to): paper 2.17x  -> "
            << util::fmt(bl_vs_nimblock_best, 2) << "x\n"
            << "  Big.Little vs Only.Little (up to): paper 1.63x -> "
            << util::fmt(bl_vs_ol_best, 2) << "x\n"
            << "\nSeries written to fig5_response_time.csv\n";

  // Optional capture (metrics/capture.h): replay the grid's stress /
  // VersaSlot-BL / first-sequence cell single-board with it attached.
  if (capture.requested()) {
    workload::WorkloadConfig config;
    config.congestion = workload::Congestion::kStress;
    config.apps_per_sequence = kAppsPerSequence;
    auto sequences = workload::generate_sequences(config, 1, kMasterSeed);
    metrics::RunOptions opts;
    capture.attach(opts);
    (void)metrics::run_single_board(metrics::SystemKind::kVersaBigLittle,
                                    suite, sequences[0], opts);
    capture.write({{"figure", "fig5"}, {"congestion", "Stress"}});
  }
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(
      argc, argv,
      {vs::metrics::SweepRunner::kFlags, vs::metrics::Capture::kFlags}, run);
}
