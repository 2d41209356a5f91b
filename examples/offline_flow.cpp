// Offline preparation flow demo: partition a user-defined streaming kernel
// graph into Little-slot-sized tasks (what the paper's Vivado TCL scripts
// do), inspect the bitstream manifest the SD card must hold, and run the
// partitioned application under VersaSlot Big.Little. The run takes the
// shared capture outputs (metrics/capture.h): `offline_flow --trace-out
// offline_flow_trace.json` writes a Chrome trace of the execution (open
// chrome://tracing or ui.perfetto.dev and load it).
#include <iostream>

#include "core/versaslot.h"
#include "metrics/capture.h"
#include "util/cli.h"

int run(const vs::util::CliArgs& args) {
  using namespace vs;
  metrics::Capture capture(args);

  // A 10-stage video-analytics pipeline: decode -> preprocess -> detect ->
  // track -> encode, with raw resource estimates per stage.
  apps::OfflineFlowConfig config;
  apps::KernelGraph graph{"VideoPipe", {}};
  struct Stage {
    const char* name;
    double lut_frac, ff_frac, bram_frac, dsp_frac, latency_ms, mb;
  };
  const Stage stages[] = {
      {"decode", 0.30, 0.22, 0.40, 0.10, 3.0, 1.2},
      {"resize", 0.15, 0.12, 0.10, 0.20, 1.0, 0.9},
      {"denoise", 0.35, 0.28, 0.25, 0.30, 4.0, 0.9},
      {"edge", 0.25, 0.20, 0.15, 0.25, 2.0, 0.9},
      {"conv_a", 0.55, 0.40, 0.45, 0.60, 8.0, 0.6},
      {"conv_b", 0.50, 0.38, 0.40, 0.55, 7.0, 0.5},
      {"nms", 0.20, 0.15, 0.10, 0.10, 1.5, 0.3},
      {"track", 0.40, 0.30, 0.30, 0.20, 3.5, 0.3},
      {"overlay", 0.18, 0.14, 0.12, 0.08, 1.0, 0.9},
      {"encode", 0.45, 0.34, 0.42, 0.15, 5.0, 1.2},
  };
  for (const Stage& s : stages) {
    apps::KernelOp op;
    op.name = s.name;
    op.raw_demand = {
        static_cast<std::int64_t>(
            s.lut_frac * static_cast<double>(config.board.little_slot.luts)),
        static_cast<std::int64_t>(
            s.ff_frac * static_cast<double>(config.board.little_slot.ffs)),
        static_cast<std::int64_t>(
            s.bram_frac * static_cast<double>(config.board.little_slot.brams)),
        static_cast<std::int64_t>(
            s.dsp_frac * static_cast<double>(config.board.little_slot.dsps)),
    };
    op.item_latency = sim::ms(s.latency_ms);
    op.bytes_in = static_cast<std::int64_t>(s.mb * 1e6);
    op.bytes_out = op.bytes_in / 2;
    graph.ops.push_back(op);
  }

  // 1. Partition by synthesis resources.
  apps::FlowReport report = apps::partition(graph, config);
  std::cout << "Offline flow for '" << graph.name << "' ("
            << graph.ops.size() << " kernel ops)\n\n";
  util::Table tasks({"task", "fused ops", "synth LUT fill", "latency/item"});
  for (int t = 0; t < report.task_count(); ++t) {
    const apps::TaskSpec& task = report.app.tasks[static_cast<std::size_t>(t)];
    tasks.add_row();
    tasks.cell(task.name);
    tasks.cell(static_cast<std::int64_t>(
        report.ops_per_task[static_cast<std::size_t>(t)]));
    tasks.cell(report.synth_fill[static_cast<std::size_t>(t)], 2);
    tasks.cell(util::fmt_duration_ns(task.item_latency));
  }
  tasks.print(std::cout);
  std::cout << "\n" << graph.ops.size() << " ops -> " << report.task_count()
            << " tasks; bundleable into Big slots: "
            << (report.bundleable ? "yes" : "no") << "\n\n";

  // 2. Bitstream manifest (everything the TCL flow must generate).
  apps::BitstreamManifest manifest = apps::make_manifest(report.app, config);
  util::Table entries({"bitstream", "tasks", "slot", "mode", "MB"});
  for (const apps::BitstreamEntry& e : manifest.entries) {
    entries.add_row();
    entries.cell(e.label);
    entries.cell(std::to_string(e.first_task) + "-" +
                 std::to_string(e.last_task));
    entries.cell(to_string(e.slot_kind));
    entries.cell(to_string(e.mode));
    entries.cell(static_cast<double>(e.bytes) / 1e6, 1);
  }
  entries.print(std::cout);
  std::cout << "\nSD card footprint: "
            << util::fmt(static_cast<double>(manifest.total_bytes) / 1e6, 1)
            << " MB\n\n";

  // 3. Run it: two arrivals at t = 0, batches 8 and 12.
  metrics::RunOptions options;
  options.board_params = config.board;
  capture.attach(options);
  const metrics::RunResult r = metrics::run_single_board(
      metrics::SystemKind::kVersaBigLittle, {report.app},
      {{0, 0, 8}, {0, 0, 12}}, options);
  for (const auto& c : r.apps) {
    std::cout << c.name << "#" << c.app_id << " completed in "
              << util::fmt(c.response_ms(), 1) << " ms\n";
  }
  capture.write({{"example", "offline_flow"}});
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(argc, argv, {vs::metrics::Capture::kFlags}, run);
}
