// The discrete-event simulator: a clock plus the pending-event set.
//
// All FPGA-board, scheduler and cluster behaviour in this repository is
// expressed as events against one Simulator instance. A Simulator is
// single-threaded by design: determinism is a core requirement (identical
// seed => identical result), and the workloads simulate in milliseconds of
// wall time. Parallelism lives one level up, in independent replicas
// (metrics::SweepRunner). Equal-time events fire in schedule order (see
// event_queue.h).
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace vs::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `fn` to run `delay` ns from now (delay >= 0). Like
  /// schedule_at, takes any void() callable and builds it in the event
  /// queue's slab slot.
  template <typename F>
  EventId schedule(SimDuration delay, F&& fn) {
    assert(delay >= 0 && "events cannot be scheduled in the past");
    return queue_.schedule(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute time `when` (>= now()).
  template <typename F>
  EventId schedule_at(SimTime when, F&& fn) {
    assert(when >= now_ && "events cannot be scheduled in the past");
    return queue_.schedule(when, std::forward<F>(fn));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs until the event set drains or `until` is passed (events strictly
  /// after `until` stay pending). Returns the number of events executed.
  std::uint64_t run(SimTime until = std::numeric_limits<SimTime>::max());

  /// Executes exactly one event if present. Returns false when drained.
  bool step();

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace vs::sim
