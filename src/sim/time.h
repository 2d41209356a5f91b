// Simulation time: signed 64-bit nanoseconds since simulation start.
//
// Signed so that durations and differences never hit unsigned wraparound
// (Core Guidelines ES.102); int64 ns covers ~292 years of simulated time.
#pragma once

#include <cstdint>

namespace vs::sim {

using SimTime = std::int64_t;      ///< absolute time, ns since start
using SimDuration = std::int64_t;  ///< duration, ns

constexpr SimDuration kNanosecond = 1;
constexpr SimDuration kMicrosecond = 1000;
constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
constexpr SimDuration kSecond = 1000 * kMillisecond;

constexpr SimDuration us(double v) noexcept {
  return static_cast<SimDuration>(v * static_cast<double>(kMicrosecond));
}
constexpr SimDuration ms(double v) noexcept {
  return static_cast<SimDuration>(v * static_cast<double>(kMillisecond));
}
constexpr SimDuration seconds(double v) noexcept {
  return static_cast<SimDuration>(v * static_cast<double>(kSecond));
}

constexpr double to_ms(SimTime t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kMillisecond);
}
constexpr double to_seconds(SimTime t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

}  // namespace vs::sim
