#include "apps/synthesis.h"

namespace vs::apps {

namespace {
std::int64_t round_up(std::int64_t value, std::int64_t step) {
  if (step <= 0) return value;
  return (value + step - 1) / step * step;
}
}  // namespace

fpga::ResourceVector SynthesisModel::synthesize(
    const fpga::ResourceVector& raw) const {
  return {round_up(raw.luts, lut_step), round_up(raw.ffs, ff_step),
          round_up(raw.brams, bram_step), round_up(raw.dsps, dsp_step)};
}

fpga::ResourceVector SynthesisModel::implement(
    const fpga::ResourceVector& synth) const {
  return {
      static_cast<std::int64_t>(static_cast<double>(synth.luts) *
                                impl_factor_lut),
      static_cast<std::int64_t>(static_cast<double>(synth.ffs) *
                                impl_factor_ff),
      static_cast<std::int64_t>(static_cast<double>(synth.brams) *
                                impl_factor_bram),
      static_cast<std::int64_t>(static_cast<double>(synth.dsps) *
                                impl_factor_dsp),
  };
}

fpga::ResourceVector SynthesisModel::bundle_synth(
    const std::vector<fpga::ResourceVector>& parts) const {
  fpga::ResourceVector sum;
  for (const auto& p : parts) sum += p;
  return sum;
}

fpga::ResourceVector SynthesisModel::bundle_impl(
    const std::vector<fpga::ResourceVector>& parts_synth) const {
  fpga::ResourceVector sum;
  for (const auto& p : parts_synth) sum += implement(p);
  return share(sum);
}

fpga::ResourceVector SynthesisModel::share(
    const fpga::ResourceVector& impl_sum) const {
  return {
      static_cast<std::int64_t>(static_cast<double>(impl_sum.luts) *
                                bundle_share_lut),
      static_cast<std::int64_t>(static_cast<double>(impl_sum.ffs) *
                                bundle_share_ff),
      impl_sum.brams,
      impl_sum.dsps,
  };
}

}  // namespace vs::apps
