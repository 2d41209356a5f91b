// FPGA fabric resource vectors (LUT / FF / BRAM / DSP).
//
// Counts are signed 64-bit: utilisation arithmetic subtracts freely and we
// never get near the range limit (ES.102 — prefer signed arithmetic).
#pragma once

#include <cstdint>
#include <string>

namespace vs::fpga {

struct ResourceVector {
  std::int64_t luts = 0;
  std::int64_t ffs = 0;
  std::int64_t brams = 0;
  std::int64_t dsps = 0;

  constexpr ResourceVector& operator+=(const ResourceVector& o) noexcept {
    luts += o.luts; ffs += o.ffs; brams += o.brams; dsps += o.dsps;
    return *this;
  }
  constexpr ResourceVector& operator-=(const ResourceVector& o) noexcept {
    luts -= o.luts; ffs -= o.ffs; brams -= o.brams; dsps -= o.dsps;
    return *this;
  }
  constexpr bool operator==(const ResourceVector&) const noexcept = default;

  /// Component-wise scale (used for synthesis->implementation factors).
  [[nodiscard]] constexpr ResourceVector scaled(double f) const noexcept {
    return {static_cast<std::int64_t>(static_cast<double>(luts) * f),
            static_cast<std::int64_t>(static_cast<double>(ffs) * f),
            static_cast<std::int64_t>(static_cast<double>(brams) * f),
            static_cast<std::int64_t>(static_cast<double>(dsps) * f)};
  }

  /// True if every component of `demand` fits within this capacity.
  [[nodiscard]] constexpr bool fits(const ResourceVector& demand) const noexcept {
    return demand.luts <= luts && demand.ffs <= ffs &&
           demand.brams <= brams && demand.dsps <= dsps;
  }

  [[nodiscard]] std::string to_string() const {
    return "LUT=" + std::to_string(luts) + " FF=" + std::to_string(ffs) +
           " BRAM=" + std::to_string(brams) + " DSP=" + std::to_string(dsps);
  }
};

}  // namespace vs::fpga
