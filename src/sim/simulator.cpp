#include "sim/simulator.h"

#include <limits>

namespace vs::sim {

std::uint64_t Simulator::run(SimTime until) {
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    auto popped = queue_.pop();
    now_ = popped.time;
    popped.fn();
    ++n;
    ++executed_;
  }
  // The clock advances to the bound (later events stay pending): a bounded
  // run means "simulate up to this instant".
  if (until != std::numeric_limits<SimTime>::max() && now_ < until) {
    now_ = until;
  }
  return n;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto popped = queue_.pop();
  now_ = popped.time;
  popped.fn();
  ++executed_;
  return true;
}

}  // namespace vs::sim
