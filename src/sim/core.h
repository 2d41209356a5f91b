// Serially-busy CPU core model.
//
// The VersaSlot hypervisor runs bare-metal on ARM cores; the paper's central
// single-core vs dual-core distinction is about which core a PCAP load
// suspends. We model a core as a FIFO work queue: submitted operations run
// one at a time for their stated duration, and the completion callback fires
// when the operation finishes. A PR that "suspends the CPU" is simply a long
// operation submitted to that core — everything queued behind it waits,
// which is exactly the task-execution-blocking effect of Fig 2.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace vs::sim {

/// What a core operation is doing. kick() tests for kPcap to detect a
/// scheduler core suspended by a bitstream load.
enum class OpKind : std::uint8_t { kPass, kLaunch, kPcap, kCkpt, kOther };

class Core {
 public:
  Core(Simulator& sim, std::string name);

  /// Enqueues an operation taking `duration` core time; `on_done` (any
  /// void() callable) fires when it completes. Returns immediately.
  /// Operations run in submission order. The callback is built once. On a
  /// core that is idle with nothing waiting, the op starts at once, and the
  /// callback is built inside the op's completion event, wrapped with the
  /// core's completion steps, when the wrapper fits inline
  /// (fires_in_place<F>()); otherwise in the in-flight slot. Behind a busy
  /// core it is built in its FIFO entry.
  template <typename F>
  void submit(SimDuration duration, F&& on_done,
              OpKind kind = OpKind::kOther) {
    assert(duration >= 0);
    ops_total_.add();
    queue_depth_.add(1.0);
    if (!busy_ && head_ == queue_.size()) {
      if constexpr (fires_in_place<F>()) {
        begin(duration, kind);
        finish_event_ = sim_.schedule(duration, BuildInPlace{[&] {
          return Completion<std::remove_cvref_t<F>>{this,
                                                    std::forward<F>(on_done)};
        }});
      } else {
        current_done_.emplace(std::forward<F>(on_done));
        start(duration, kind);
      }
      return;
    }
    push_op(duration, kind).on_done.emplace(std::forward<F>(on_done));
    if (!busy_) start_next();
  }

  /// True when an op callback of type F, wrapped with the core's completion
  /// steps, fits inline in its completion event, so an op submitted to an
  /// idle core completes with one event and no parked callback. An EventFn
  /// never fits: it parks in the in-flight slot.
  template <typename F>
  static constexpr bool fires_in_place() noexcept {
    return InlineEvent::stores_inline<Completion<std::remove_cvref_t<F>>>();
  }

  /// True if an operation is executing right now.
  [[nodiscard]] bool busy() const noexcept { return busy_; }

  /// Number of operations waiting (not counting the one executing).
  [[nodiscard]] std::size_t backlog() const noexcept {
    return queue_.size() - head_;
  }

  /// Total time this core has spent executing operations.
  [[nodiscard]] SimDuration busy_time() const noexcept { return busy_time_; }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Kind of the currently executing operation (kOther when idle).
  [[nodiscard]] OpKind current_kind() const noexcept { return current_kind_; }

  /// Registers this core's instruments (labelled by core name) and resolves
  /// the telemetry handles. Without this call every update is a no-op.
  void bind_metrics(obs::MetricsRegistry& registry);

  /// Crash path: cancels the in-flight operation (its completion never
  /// fires) and drops the queue. busy_time() is corrected for the
  /// unexecuted remainder of the aborted operation.
  void reset();

 private:
  struct Op {
    SimDuration duration;
    EventFn on_done;
    OpKind kind;
  };

  /// An idle core's op completion, built in its event: the callback between
  /// the steps finish_current() takes around a parked one.
  template <typename Fn>
  struct Completion {
    Core* core;
    Fn done;
    void operator()() {
      core->complete();
      done();
      core->resume();
    }
  };

  /// Appends an op with an empty callback to the FIFO and returns it.
  Op& push_op(SimDuration duration, OpKind kind);
  /// Marks the core busy with an op ending `duration` from now.
  void begin(SimDuration duration, OpKind kind);
  /// Starts the op whose callback is already in current_done_.
  void start(SimDuration duration, OpKind kind);
  void start_next();  ///< moves the FIFO head in-flight and starts it
  void finish_current();
  /// The in-flight op has ended: the core is idle until resume().
  void complete() noexcept {
    busy_ = false;
    current_kind_ = OpKind::kOther;
    queue_depth_.add(-1.0);
  }
  /// After a completion callback: starts the next waiting op unless the
  /// callback restarted the core already.
  void resume() {
    if (!busy_ && head_ < queue_.size()) start_next();
  }

  Simulator& sim_;
  std::string name_;
  // FIFO of waiting ops: queue_[head_..] in submission order. The vector is
  // cleared (keeping its capacity) whenever it drains, so a steady-state
  // submit allocates nothing.
  std::vector<Op> queue_;
  std::size_t head_ = 0;
  bool busy_ = false;
  SimTime current_end_ = 0;
  OpKind current_kind_ = OpKind::kOther;
  // The in-flight op's completion callback (the in-flight slot) when it is
  // not built into the completion event: ops started from the FIFO, and
  // callbacks too large to wrap inline. The core is serially busy, so
  // parking it here lets the scheduled completion event capture only
  // `this` and stay within the event queue's inline closure buffer.
  EventFn current_done_;
  EventId finish_event_ = 0;  ///< valid only while busy_ (reset() cancels it)
  SimDuration busy_time_ = 0;
  obs::CounterHandle ops_total_;      ///< vs_core_ops_total
  obs::CounterHandle busy_ns_total_;  ///< vs_core_busy_ns_total
  obs::GaugeHandle queue_depth_;      ///< vs_core_queue_depth (incl. running)
};

}  // namespace vs::sim
