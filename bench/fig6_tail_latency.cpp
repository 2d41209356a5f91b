// Fig 6 reproduction: tail response time (P95 / P99) normalised to the
// baseline for all six systems under the four congestion conditions.
//
// Same experimental setup as Fig 5 (10 x 20-app sequences). The paper's
// claims checked here: Big.Little beats Nimblock on P95 and P99 across all
// congestion conditions (by 83%/46% under stress and 56%/48% under
// real-time), while P99 may slightly trail the variance-free exclusive
// baseline.
// The (congestion × system × sequence) grid runs on metrics::SweepRunner
// (--jobs N / VS_JOBS); reduction order is fixed, so the CSV is
// byte-identical for any worker count.
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

  std::cout << "=== Fig 6: tail response time normalised to baseline ===\n"
            << "(" << runner.jobs() << " worker thread(s))\n\n";
  util::CsvWriter csv("fig6_tail_latency.csv");
  csv.header({"congestion", "system", "p95_ms", "p99_ms", "p95_vs_baseline",
              "p99_vs_baseline", "completed"});

  for (int ci = 0; ci < workload::kCongestionCount; ++ci) {
    auto congestion = static_cast<workload::Congestion>(ci);
    workload::WorkloadConfig config;
    config.congestion = congestion;
    config.apps_per_sequence = kAppsPerSequence;
    auto sequences =
        workload::generate_sequences(config, kSequences, kMasterSeed);

    // All six systems' replicas for this congestion level in one sweep.
    std::vector<metrics::SweepJob> grid;
    for (int k = 0; k < metrics::kSystemCount; ++k) {
      for (const auto& seq : sequences) {
        grid.push_back({static_cast<metrics::SystemKind>(k), seq, {}});
      }
    }
    auto cells = runner.run(suite, grid);

    std::vector<metrics::AggregateResult> results;
    std::vector<int> sys_completed(
        static_cast<std::size_t>(metrics::kSystemCount), 0);
    for (int k = 0; k < metrics::kSystemCount; ++k) {
      std::vector<metrics::RunResult> per_seq(
          cells.begin() + static_cast<std::ptrdiff_t>(k * kSequences),
          cells.begin() + static_cast<std::ptrdiff_t>((k + 1) * kSequences));
      results.push_back(metrics::reduce_aggregate(
          static_cast<metrics::SystemKind>(k), per_seq));
      for (const auto& r : per_seq) {
        sys_completed[static_cast<std::size_t>(k)] += r.completed;
      }
    }
    const auto& base = results[0];
    const auto& nim = results[3];
    const auto& bl = results[5];

    std::cout << "-- " << workload::congestion_name(congestion)
              << " arrivals --\n";
    util::Table table(
        {"system", "P95 ms", "P99 ms", "P95/base", "P99/base"});
    for (std::size_t k = 0; k < results.size(); ++k) {
      const auto& r = results[k];
      table.add_row();
      table.cell(r.system);
      table.cell(r.p95_ms, 1);
      table.cell(r.p99_ms, 1);
      table.cell(r.p95_ms / base.p95_ms, 2);
      table.cell(r.p99_ms / base.p99_ms, 2);
      csv.row({workload::congestion_name(congestion), r.system,
               util::fmt(r.p95_ms, 3), util::fmt(r.p99_ms, 3),
               util::fmt(r.p95_ms / base.p95_ms, 4),
               util::fmt(r.p99_ms / base.p99_ms, 4),
               std::to_string(sys_completed[k])});
    }
    table.print(std::cout);
    std::cout << "  Big.Little vs Nimblock: P95 "
              << util::fmt((nim.p95_ms / bl.p95_ms - 1) * 100, 0)
              << "% better, P99 "
              << util::fmt((nim.p99_ms / bl.p99_ms - 1) * 100, 0)
              << "% better (paper: stress 83%/46%, real-time 56%/48%)\n\n";
  }
  csv.close();
  std::cout << "Series written to fig6_tail_latency.csv\n";

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
    capture.write({{"figure", "fig6"}, {"congestion", "Stress"}});
  }
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(
      argc, argv,
      {vs::metrics::SweepRunner::kFlags, vs::metrics::Capture::kFlags}, run);
}
