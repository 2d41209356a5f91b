#include "apps/offline_flow.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace vs::apps {

namespace {

/// Synthesis usage of ops [i, j] fused into one task.
fpga::ResourceVector fused_synth(const KernelGraph& graph, int i, int j,
                                 const SynthesisModel& model) {
  fpga::ResourceVector raw;
  for (int k = i; k <= j; ++k) {
    raw += graph.ops[static_cast<std::size_t>(k)].raw_demand;
  }
  return model.synthesize(raw);
}

sim::SimDuration fused_latency(const KernelGraph& graph, int i, int j,
                               const OfflineFlowConfig& config) {
  sim::SimDuration sum = 0;
  for (int k = i; k <= j; ++k) {
    sum += graph.ops[static_cast<std::size_t>(k)].item_latency;
  }
  if (j > i) {
    sum = static_cast<sim::SimDuration>(static_cast<double>(sum) *
                                        config.fusion_speedup);
  }
  return sum;
}

}  // namespace

FlowReport partition(const KernelGraph& graph,
                     const OfflineFlowConfig& config) {
  const int n = static_cast<int>(graph.ops.size());
  if (n == 0) throw std::invalid_argument("empty kernel graph");

  const fpga::ResourceVector budget =
      config.board.little_slot.scaled(config.max_fill);

  // feasible[i][j]: ops i..j fused fit a Little slot at synthesis.
  std::vector<std::vector<bool>> feasible(
      static_cast<std::size_t>(n),
      std::vector<bool>(static_cast<std::size_t>(n), false));
  for (int i = 0; i < n; ++i) {
    if (!budget.fits(fused_synth(graph, i, i, config.synthesis))) {
      throw std::invalid_argument("kernel op '" + graph.ops[static_cast<std::size_t>(i)].name +
                                  "' does not fit a Little slot even alone");
    }
    for (int j = i; j < n; ++j) {
      feasible[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          budget.fits(fused_synth(graph, i, j, config.synthesis));
      if (!feasible[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) {
        break;  // resource usage is monotone in the op range
      }
    }
  }

  // DP over chain partitions: minimise task count, then minimise the
  // pipeline bottleneck (max per-task latency).
  struct Cell {
    int tasks = std::numeric_limits<int>::max();
    sim::SimDuration bottleneck = std::numeric_limits<sim::SimDuration>::max();
    int cut = -1;  // previous boundary: last task is ops [cut+1 .. i]
  };
  std::vector<Cell> dp(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int cut = -1; cut < i; ++cut) {
      if (!feasible[static_cast<std::size_t>(cut + 1)]
                   [static_cast<std::size_t>(i)]) {
        continue;
      }
      if (cut >= 0 && dp[static_cast<std::size_t>(cut)].tasks ==
                          std::numeric_limits<int>::max()) {
        continue;  // no feasible partition of the prefix
      }
      int tasks = 1 + (cut >= 0 ? dp[static_cast<std::size_t>(cut)].tasks : 0);
      sim::SimDuration lat = fused_latency(graph, cut + 1, i, config);
      sim::SimDuration bottleneck =
          cut >= 0 ? std::max(lat, dp[static_cast<std::size_t>(cut)].bottleneck)
                   : lat;
      Cell& cell = dp[static_cast<std::size_t>(i)];
      if (tasks < cell.tasks ||
          (tasks == cell.tasks && bottleneck < cell.bottleneck)) {
        cell = Cell{tasks, bottleneck, cut};
      }
    }
  }
  if (dp[static_cast<std::size_t>(n - 1)].tasks ==
      std::numeric_limits<int>::max()) {
    throw std::invalid_argument("kernel graph cannot be partitioned");
  }

  // Reconstruct boundaries.
  std::vector<std::pair<int, int>> ranges;
  for (int i = n - 1; i >= 0;) {
    int cut = dp[static_cast<std::size_t>(i)].cut;
    ranges.emplace_back(cut + 1, i);
    i = cut;
  }
  std::reverse(ranges.begin(), ranges.end());

  FlowReport report;
  report.app.name = graph.name;
  int index = 0;
  for (auto [i, j] : ranges) {
    TaskSpec task;
    task.index = index++;
    task.name = graph.ops[static_cast<std::size_t>(i)].name +
                (j > i ? "+" + std::to_string(j - i) : "");
    task.synth_usage = fused_synth(graph, i, j, config.synthesis);
    task.impl_usage = config.synthesis.implement(task.synth_usage);
    task.item_latency = fused_latency(graph, i, j, config);
    task.item_bytes_in = graph.ops[static_cast<std::size_t>(i)].bytes_in;
    task.item_bytes_out = graph.ops[static_cast<std::size_t>(j)].bytes_out;
    task.bitstream_bytes = config.board.little_bitstream_bytes;
    report.app.tasks.push_back(task);
    report.ops_per_task.push_back(j - i + 1);
    report.synth_fill.push_back(
        static_cast<double>(task.synth_usage.luts) /
        static_cast<double>(config.board.little_slot.luts));
  }
  report.bundleable = can_bundle(report.app, config.board, config.synthesis,
                                 config.bundle_size);
  return report;
}

BitstreamManifest make_manifest(const AppSpec& app,
                                const OfflineFlowConfig& config) {
  BitstreamManifest manifest;
  for (const TaskSpec& task : app.tasks) {
    BitstreamEntry e;
    e.label = "task" + std::to_string(task.index) + ".little";
    e.first_task = e.last_task = task.index;
    e.slot_kind = fpga::SlotKind::kLittle;
    e.mode = BundleMode::kSingle;
    e.bytes = task.bitstream_bytes;
    manifest.entries.push_back(e);
    manifest.total_bytes += e.bytes;
  }
  if (can_bundle(app, config.board, config.synthesis, config.bundle_size)) {
    // Both execution modes are generated offline; the scheduler picks one
    // at runtime based on the batch size (§III-B).
    auto add_bundles = [&](BundleMode mode) {
      std::vector<UnitSpec> units;
      make_big_units(units, app, mode == BundleMode::kParallel ? 30 : 1,
                     config.board, config.synthesis, config.bundle_size);
      int bundle_index = 0;
      for (const UnitSpec& u : units) {
        BitstreamEntry e;
        e.label = "bundle" + std::to_string(bundle_index++) + "." +
                  to_string(mode);
        e.first_task = u.first_task;
        e.last_task = u.last_task;
        e.slot_kind = fpga::SlotKind::kBig;
        e.mode = mode;
        e.bytes = u.bitstream_bytes;
        manifest.entries.push_back(e);
        manifest.total_bytes += e.bytes;
      }
    };
    add_bundles(BundleMode::kParallel);
    add_bundles(BundleMode::kSerial);
  }
  return manifest;
}

}  // namespace vs::apps
