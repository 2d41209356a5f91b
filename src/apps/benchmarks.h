// The five-application benchmark suite from the paper (the Nimblock /
// Rosetta-derived set): 3D Rendering (3 tasks), LeNet (6), Image
// Compression (6), AlexNet (6) and Optical Flow (9).
//
// The paper generates the task partitioning and bitstreams with a Vivado
// TCL flow; here each application is described by per-task raw resource
// demand and per-item kernel latency, then pushed through the
// SynthesisModel to obtain synthesis/implementation usage and bitstream
// sizes. Latencies are in the ranges published for the Rosetta kernels on
// UltraScale+ parts; resource profiles are calibrated so the suite
// reproduces the paper's utilisation anchors (DESIGN.md §3).
#pragma once

#include <vector>

#include "apps/synthesis.h"
#include "apps/task.h"
#include "fpga/params.h"

namespace vs::apps {

/// Identifiers matching the paper's abbreviations.
enum class Benchmark { k3DR = 0, kLeNet = 1, kIC = 2, kAN = 3, kOF = 4 };

constexpr int kBenchmarkCount = 5;

/// Builds one application spec. `params` provides the slot capacities used
/// to size bitstreams; `model` provides the synthesis behaviour.
[[nodiscard]] AppSpec make_app(Benchmark b, const fpga::BoardParams& params,
                               const SynthesisModel& model = {});

/// Builds the full suite in enum order.
[[nodiscard]] std::vector<AppSpec> make_suite(
    const fpga::BoardParams& params, const SynthesisModel& model = {});

}  // namespace vs::apps
