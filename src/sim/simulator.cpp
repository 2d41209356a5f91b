#include "sim/simulator.h"

#include <limits>

namespace vs::sim {

std::uint64_t Simulator::run(SimTime until) {
  std::uint64_t n = 0;
  while (const EventQueue::Due due = queue_.take_due(until)) {
    now_ = due.time;
    queue_.fire(due);
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
  const EventQueue::Due due =
      queue_.take_due(std::numeric_limits<SimTime>::max());
  if (!due) return false;
  now_ = due.time;
  queue_.fire(due);
  ++executed_;
  return true;
}

}  // namespace vs::sim
