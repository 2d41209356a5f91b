// Fig 7 reproduction: resource-utilisation improvement of 3-in-1 tasks.
//
// Left panel: per-application LUT and FF utilisation when tasks run
// individually in Little slots versus bundled 3-in-1 in Big slots
// (post-implementation usage over slot capacity), and the improvement
// percentage (paper: +35% LUT, +29% FF on average).
//
// Right panel: the IC anchor — LUT usage of IC's first three tasks and
// their bundle at synthesis vs implementation (paper: bundle 0.98 -> 0.57;
// average task utilisation 0.41 -> 0.6 with bundling).
//
// A dynamic check follows: time-weighted fabric utilisation from actual
// Big.Little vs Only.Little runs of the same workload.
#include <iostream>

#include "apps/benchmarks.h"
#include "apps/bundling.h"
#include "metrics/capture.h"
#include "metrics/sweep.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/table.h"
#include "workload/generator.h"

int run(const vs::util::CliArgs& args) {
  using namespace vs;

  metrics::SweepRunner runner(args);
  metrics::Capture capture(args);

  fpga::BoardParams params;
  apps::SynthesisModel model;
  auto suite = apps::make_suite(params, model);

  // The dynamic-check sweep runs up front (its per-spec completions feed
  // the dyn_completed CSV column of the left panel below); its summary
  // still prints after the two static panels, in the original order.
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 20;
  auto sequences = workload::generate_sequences(config, 3, 2025);
  // Both systems' replicas shard across the sweep workers; the fixed
  // (sequence, system) job order keeps the reduction deterministic.
  std::vector<metrics::SweepJob> grid;
  for (const auto& seq : sequences) {
    grid.push_back({metrics::SystemKind::kVersaBigLittle, seq, {}});
    grid.push_back({metrics::SystemKind::kVersaOnlyLittle, seq, {}});
  }
  auto cells = runner.run(suite, grid);
  // Per-spec completions over the Big.Little dynamic-check replicas.
  std::vector<int> dyn_completed(suite.size(), 0);
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    for (const runtime::CompletedApp& c : cells[2 * i].apps) {
      ++dyn_completed[static_cast<std::size_t>(c.spec_index)];
    }
  }

  std::cout << "=== Fig 7 (left): utilisation improvement by 3-in-1 tasks "
               "===\n\n";
  util::CsvWriter csv("fig7_utilization.csv");
  csv.header({"app", "lut_little", "lut_big", "lut_improvement_pct",
              "ff_little", "ff_big", "ff_improvement_pct", "dyn_completed"});

  util::Table table({"app", "LUT little", "LUT 3-in-1", "LUT +%",
                     "FF little", "FF 3-in-1", "FF +%"});
  double lut_sum = 0, ff_sum = 0;
  for (std::size_t app_index = 0; app_index < suite.size(); ++app_index) {
    const apps::AppSpec& app = suite[app_index];
    // Little: average implemented utilisation of one task in a Little slot.
    double lut_l = 0, ff_l = 0;
    for (const apps::TaskSpec& t : app.tasks) {
      lut_l += static_cast<double>(t.impl_usage.luts) /
               static_cast<double>(params.little_slot.luts);
      ff_l += static_cast<double>(t.impl_usage.ffs) /
              static_cast<double>(params.little_slot.ffs);
    }
    lut_l /= app.task_count();
    ff_l /= app.task_count();

    // Big: average implemented utilisation of the app's bundles in Big
    // slots, weighted by bundle width.
    std::vector<apps::UnitSpec> bundles;
    apps::make_big_units(bundles, app, /*batch=*/17, params, model);
    double lut_b = 0, ff_b = 0;
    int weight = 0;
    for (const apps::UnitSpec& u : bundles) {
      lut_b += u.task_count() * static_cast<double>(u.impl_usage.luts) /
               static_cast<double>(params.big_slot.luts);
      ff_b += u.task_count() * static_cast<double>(u.impl_usage.ffs) /
              static_cast<double>(params.big_slot.ffs);
      weight += u.task_count();
    }
    lut_b /= weight;
    ff_b /= weight;

    double lut_imp = (lut_b / lut_l - 1) * 100;
    double ff_imp = (ff_b / ff_l - 1) * 100;
    lut_sum += lut_imp;
    ff_sum += ff_imp;

    table.add_row();
    table.cell(app.name);
    table.cell(lut_l, 2);
    table.cell(lut_b, 2);
    table.cell(lut_imp, 1);
    table.cell(ff_l, 2);
    table.cell(ff_b, 2);
    table.cell(ff_imp, 1);
    csv.row({app.name, util::fmt(lut_l, 4), util::fmt(lut_b, 4),
             util::fmt(lut_imp, 2), util::fmt(ff_l, 4), util::fmt(ff_b, 4),
             util::fmt(ff_imp, 2), std::to_string(dyn_completed[app_index])});
  }
  csv.close();
  table.print(std::cout);
  std::cout << "\n  average improvement: LUT +"
            << util::fmt(lut_sum / 5, 1) << "% (paper +35%), FF +"
            << util::fmt(ff_sum / 5, 1) << "% (paper +29%)\n\n";

  // ------------------------------------------------------------ right panel
  std::cout << "=== Fig 7 (right): IC tasks 1-3, synthesis vs "
               "implementation ===\n\n";
  const apps::AppSpec& ic = suite[2];
  util::Table right({"", "synthesis", "implementation"});
  double avg_task_impl = 0;
  for (int t = 0; t < 3; ++t) {
    const apps::TaskSpec& task = ic.tasks[static_cast<std::size_t>(t)];
    double s = static_cast<double>(task.synth_usage.luts) /
               static_cast<double>(params.little_slot.luts);
    double i = static_cast<double>(task.impl_usage.luts) /
               static_cast<double>(params.little_slot.luts);
    avg_task_impl += i / 3;
    right.add_row();
    right.cell("IC task" + std::to_string(t + 1) + " (Little)");
    right.cell(s, 2);
    right.cell(i, 2);
  }
  std::vector<fpga::ResourceVector> parts{ic.tasks[0].synth_usage,
                                          ic.tasks[1].synth_usage,
                                          ic.tasks[2].synth_usage};
  double bundle_synth = static_cast<double>(model.bundle_synth(parts).luts) /
                        static_cast<double>(params.big_slot.luts);
  double bundle_impl = static_cast<double>(model.bundle_impl(parts).luts) /
                       static_cast<double>(params.big_slot.luts);
  right.add_row();
  right.cell("Bundle1 (Big)");
  right.cell(bundle_synth, 2);
  right.cell(bundle_impl, 2);
  right.print(std::cout);
  std::cout << "\n  paper anchors: bundle 0.98 (synth) -> 0.57 (impl); "
               "average task utilisation 0.41 -> "
            << util::fmt(bundle_impl, 2)
            << " with bundling (paper 0.41 -> 0.6)\n"
            << "  measured: bundle " << util::fmt(bundle_synth, 2) << " -> "
            << util::fmt(bundle_impl, 2) << "; tasks avg "
            << util::fmt(avg_task_impl, 2) << "\n\n";

  // --------------------------------------------------- dynamic verification
  // (the replicas already ran before the left panel; see above)
  std::cout << "=== Dynamic check: time-weighted fabric utilisation ===\n\n";
  double bl_lut = 0, ol_lut = 0, bl_ff = 0, ol_ff = 0;
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    const auto& bl = cells[2 * i];
    const auto& ol = cells[2 * i + 1];
    bl_lut += bl.utilization.lut_of_occupied() / 3;
    ol_lut += ol.utilization.lut_of_occupied() / 3;
    bl_ff += bl.utilization.ff_of_occupied() / 3;
    ol_ff += ol.utilization.ff_of_occupied() / 3;
  }
  std::cout << "  occupied-slot LUT utilisation: Only.Little "
            << util::fmt(ol_lut, 3) << " -> Big.Little "
            << util::fmt(bl_lut, 3) << " ("
            << util::fmt((bl_lut / ol_lut - 1) * 100, 1) << "%)\n"
            << "  occupied-slot FF  utilisation: Only.Little "
            << util::fmt(ol_ff, 3) << " -> Big.Little "
            << util::fmt(bl_ff, 3) << " ("
            << util::fmt((bl_ff / ol_ff - 1) * 100, 1) << "%)\n"
            << "\nSeries written to fig7_utilization.csv\n";

  // Optional capture (metrics/capture.h): replay the dynamic check's first
  // Big.Little cell with it attached.
  if (capture.requested()) {
    metrics::RunOptions opts;
    capture.attach(opts);
    (void)metrics::run_single_board(metrics::SystemKind::kVersaBigLittle,
                                    suite, sequences[0], opts);
    capture.write({{"figure", "fig7"}});
  }
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(
      argc, argv,
      {vs::metrics::SweepRunner::kFlags, vs::metrics::Capture::kFlags}, run);
}
