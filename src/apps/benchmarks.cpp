#include "apps/benchmarks.h"

#include <cassert>

namespace vs::apps {

namespace {

/// Raw per-task description before synthesis.
struct RawTask {
  const char* name;
  double lut_frac;   ///< raw LUT demand as fraction of a Little slot
  double ff_frac;    ///< raw FF demand as fraction of a Little slot
  double bram_frac;
  double dsp_frac;
  double latency_ms; ///< kernel time per batch item
  double mb_in;      ///< input payload per item, MB
};

struct RawApp {
  const char* name;
  std::vector<RawTask> tasks;
};

// Task profiles. LUT fractions sit in the 0.55–0.95 raw band so that
// synthesis (step-quantised) lands around 0.6–0.98 of a Little slot — the
// regime the paper describes where synthesis-based partitioning
// over-reserves. IC's first three tasks are calibrated to the paper's
// anchor: bundle synthesis 0.98 of a Big slot, implementation 0.57.
const RawApp kRawApps[kBenchmarkCount] = {
    // 3D Rendering: projection -> rasterization -> z-culling/coloring.
    {"3DR",
     {
         {"proj", 0.70, 0.52, 0.30, 0.35, 3.2, 0.50},
         {"rast", 0.84, 0.60, 0.42, 0.28, 4.8, 0.45},
         {"zcul", 0.64, 0.48, 0.55, 0.15, 3.6, 0.45},
     }},
    // LeNet inference, layer-grouped into six tasks.
    {"LeNet",
     {
         {"conv1", 0.66, 0.50, 0.46, 0.62, 2.6, 0.35},
         {"pool1", 0.56, 0.42, 0.22, 0.12, 0.9, 0.30},
         {"conv2", 0.78, 0.58, 0.58, 0.74, 3.4, 0.30},
         {"pool2", 0.55, 0.40, 0.20, 0.10, 0.8, 0.25},
         {"fc1", 0.72, 0.55, 0.62, 0.80, 1.9, 0.25},
         {"fc2", 0.58, 0.44, 0.30, 0.40, 1.0, 0.10},
     }},
    // Image Compression: DCT -> quantisation -> zigzag -> RLE -> Huffman ->
    // packing. First three tasks are the paper's Fig 7 (right) anchor.
    {"IC",
     {
         {"dct", 0.645, 0.50, 0.40, 0.55, 3.0, 0.60},
         {"quant", 0.640, 0.49, 0.30, 0.42, 2.2, 0.55},
         {"zigzag", 0.650, 0.51, 0.28, 0.20, 1.8, 0.55},
         {"rle", 0.60, 0.46, 0.25, 0.12, 1.6, 0.40},
         {"huff", 0.76, 0.56, 0.48, 0.15, 2.8, 0.35},
         {"pack", 0.55, 0.42, 0.22, 0.08, 1.2, 0.20},
     }},
    // AlexNet inference, heavier kernels.
    {"AN",
     {
         {"conv1", 0.82, 0.62, 0.55, 0.85, 8.5, 1.10},
         {"pool1", 0.56, 0.42, 0.25, 0.12, 2.6, 0.80},
         {"conv2", 0.88, 0.66, 0.62, 0.92, 10.4, 0.75},
         {"conv3", 0.84, 0.64, 0.58, 0.70, 7.8, 0.60},
         {"conv45", 0.86, 0.65, 0.60, 0.68, 6.4, 0.55},
         {"fc", 0.74, 0.58, 0.62, 0.55, 4.2, 0.40},
     }},
    // Optical Flow: nine fine-grained stages.
    {"OF",
     {
         {"grad_xy", 0.62, 0.47, 0.35, 0.40, 1.8, 0.70},
         {"grad_z", 0.58, 0.44, 0.32, 0.36, 1.5, 0.65},
         {"grad_w", 0.60, 0.46, 0.30, 0.34, 1.6, 0.60},
         {"outer", 0.68, 0.52, 0.38, 0.52, 2.4, 0.60},
         {"tens_y", 0.63, 0.48, 0.34, 0.38, 1.9, 0.55},
         {"tens_x", 0.63, 0.48, 0.34, 0.38, 1.9, 0.55},
         {"flow_a", 0.70, 0.53, 0.40, 0.56, 2.6, 0.50},
         {"flow_b", 0.66, 0.50, 0.36, 0.48, 2.2, 0.50},
         {"out", 0.54, 0.41, 0.24, 0.16, 1.2, 0.45},
     }},
};

/// Slot kernels run at a conservative fabric clock with AXI/DDR access
/// overhead; per-item latencies are the raw kernel estimates scaled by this
/// factor (calibrated so per-app service times sit in the 0.5-3 s band the
/// paper's congestion conditions imply).
constexpr double kLatencyScale = 6.0;

}  // namespace

AppSpec make_app(Benchmark b, const fpga::BoardParams& params,
                 const SynthesisModel& model) {
  const RawApp& raw = kRawApps[static_cast<int>(b)];
  AppSpec app;
  app.name = raw.name;
  int index = 0;
  for (const RawTask& rt : raw.tasks) {
    TaskSpec task;
    task.index = index++;
    task.name = rt.name;
    fpga::ResourceVector demand{
        static_cast<std::int64_t>(rt.lut_frac *
                                  static_cast<double>(params.little_slot.luts)),
        static_cast<std::int64_t>(rt.ff_frac *
                                  static_cast<double>(params.little_slot.ffs)),
        static_cast<std::int64_t>(
            rt.bram_frac * static_cast<double>(params.little_slot.brams)),
        static_cast<std::int64_t>(
            rt.dsp_frac * static_cast<double>(params.little_slot.dsps)),
    };
    task.synth_usage = model.synthesize(demand);
    assert(params.little_slot.fits(task.synth_usage) &&
           "task partitioning must fit the Little slot at synthesis");
    task.impl_usage = model.implement(task.synth_usage);
    task.item_latency = sim::ms(rt.latency_ms * kLatencyScale);
    task.item_bytes_in = static_cast<std::int64_t>(rt.mb_in * 1e6);
    task.item_bytes_out = task.item_bytes_in / 2;
    task.bitstream_bytes = params.little_bitstream_bytes;
    app.tasks.push_back(task);
  }
  return app;
}

std::vector<AppSpec> make_suite(const fpga::BoardParams& params,
                                const SynthesisModel& model) {
  std::vector<AppSpec> suite;
  suite.reserve(kBenchmarkCount);
  for (int i = 0; i < kBenchmarkCount; ++i) {
    suite.push_back(make_app(static_cast<Benchmark>(i), params, model));
  }
  return suite;
}

}  // namespace vs::apps
