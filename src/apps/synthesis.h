// HLS synthesis / implementation resource model.
//
// Two facts about the Vivado flow drive the paper's utilisation argument and
// are modelled here:
//
//  1. HLS resource consumption grows stepwise (unroll/partition factors
//     quantise usage), so synthesis-based task partitioning routinely
//     over-reserves slot capacity ("resource over-subscription and
//     under-utilization within slots", §I).
//  2. Implementation (place & route with cross-boundary optimisation) uses
//     substantially less than synthesis reports — the paper's IC bundle
//     drops from 0.98 (synthesis) to 0.57 (implementation).
//
// The model turns a raw demand estimate into quantised synthesis usage and a
// scaled implementation usage, and produces the merged usage of a 3-in-1
// bundle (bundling shares control/interconnect logic, so the merged usage is
// slightly below the sum of the parts).
#pragma once

#include <vector>

#include "fpga/params.h"
#include "fpga/resources.h"

namespace vs::apps {

struct SynthesisModel {
  // Quantisation steps (stepwise HLS growth).
  std::int64_t lut_step = 1'000;
  std::int64_t ff_step = 4'000;
  std::int64_t bram_step = 4;
  std::int64_t dsp_step = 8;

  // Implementation-vs-synthesis scale factors (post-P&R optimisation).
  double impl_factor_lut = 0.628;
  double impl_factor_ff = 0.64;
  double impl_factor_bram = 1.0;   ///< memories do not shrink
  double impl_factor_dsp = 1.0;

  // Bundle sharing: merged 3-in-1 logic relative to the sum of the parts.
  double bundle_share_lut = 0.92;
  double bundle_share_ff = 0.86;

  /// Rounds raw demand up to the quantisation grid — the synthesis report.
  [[nodiscard]] fpga::ResourceVector synthesize(
      const fpga::ResourceVector& raw) const;

  /// Post-implementation usage for a single task.
  [[nodiscard]] fpga::ResourceVector implement(
      const fpga::ResourceVector& synth) const;

  /// Synthesis usage of a bundle: the plain sum (the tools conservatively
  /// add the parts when checking whether the bundle fits the Big slot).
  [[nodiscard]] fpga::ResourceVector bundle_synth(
      const std::vector<fpga::ResourceVector>& parts) const;

  /// Implementation usage of a bundle: sum of the parts' implementation
  /// usage scaled by the sharing factors.
  [[nodiscard]] fpga::ResourceVector bundle_impl(
      const std::vector<fpga::ResourceVector>& parts_synth) const;

  /// The sharing factors applied to `impl_sum`, the summed implementation
  /// usage of a bundle's parts: bundle_impl(parts) is share(sum of
  /// implement(part)).
  [[nodiscard]] fpga::ResourceVector share(
      const fpga::ResourceVector& impl_sum) const;
};

}  // namespace vs::apps
