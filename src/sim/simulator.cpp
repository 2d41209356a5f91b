#include "sim/simulator.h"

#include <cassert>
#include <utility>

namespace vs::sim {

EventId Simulator::schedule(SimDuration delay, EventFn fn) {
  assert(delay >= 0 && "events cannot be scheduled in the past");
  return queue_.schedule(now_ + delay, std::move(fn));
}

EventId Simulator::schedule_at(SimTime when, EventFn fn) {
  assert(when >= now_ && "events cannot be scheduled in the past");
  return queue_.schedule(when, std::move(fn));
}

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
