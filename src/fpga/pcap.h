// PCAP (Processor Configuration Access Port) model.
//
// The PCAP is the serial bottleneck at the heart of the paper: it loads one
// partial bitstream at a time and suspends the issuing CPU core for the
// duration of the load. Requests that arrive while a load is in flight wait
// in a FIFO — that queueing delay is the "PR contention" VersaSlot is built
// to alleviate, and we account for it explicitly so the D_switch metric can
// observe it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "obs/metrics.h"
#include "sim/core.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/rng.h"

namespace vs::fpga {

class Pcap {
 public:
  Pcap(sim::Simulator& sim) : sim_(sim) {}

  struct Stats {
    std::int64_t loads_completed = 0;
    std::int64_t loads_queued_behind_another = 0;  ///< waited in the FIFO
    std::int64_t load_failures = 0;  ///< verification failures (retried)
    sim::SimDuration total_wait = 0;               ///< time spent in FIFO
    sim::SimDuration total_load = 0;               ///< time spent loading
  };

  /// Fault injection: each load independently fails verification with
  /// probability `failure_probability` (DFX requires confirming the partial
  /// bitstream loaded correctly; a CRC error forces a reload). Failed loads
  /// consume their full transfer time, then retry — still ahead of queued
  /// requests. Deterministic through the supplied RNG stream. Configured
  /// through faults::FaultScenario (`pcap_crc_probability`, stream
  /// "pcap/<board>") so every fault knob shares one seed-derivation rule.
  void set_fault_model(double failure_probability, util::Rng rng) {
    failure_probability_ = failure_probability;
    rng_ = rng;
  }

  /// Crash path: drops the in-flight request and the FIFO. The companion
  /// Core::reset() already cancelled the core op whose completion would
  /// have finished the in-flight load, so no stale callback can fire.
  void reset();

  /// Requests a load of `load_duration` issued from `core`. The load
  /// occupies the PCAP exclusively and suspends `core` while transferring;
  /// `on_done` fires at completion. `on_blocked`, if set, fires once if the
  /// request had to wait behind another load (used for blocked-task
  /// accounting). `bytes` is the partial-bitstream size, accounted to the
  /// vs_pcap_bytes_loaded_total telemetry counter on successful completion.
  void request(sim::SimDuration load_duration, sim::Core& core,
               sim::EventFn on_done, sim::EventFn on_blocked = nullptr,
               std::int64_t bytes = 0);

  [[nodiscard]] bool busy() const noexcept { return busy_; }
  [[nodiscard]] std::size_t backlog() const noexcept { return queue_.size(); }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Registers this PCAP's instruments under the board label and resolves
  /// the telemetry handles. Without this call every update is a no-op.
  void bind_metrics(obs::MetricsRegistry& registry,
                    const std::string& board);

 private:
  struct Request {
    sim::SimDuration duration = 0;
    sim::Core* core = nullptr;
    sim::EventFn on_done;
    sim::SimTime enqueued = 0;
    std::int64_t bytes = 0;
  };

  void start(Request req);
  void finish_load();

  sim::Simulator& sim_;
  std::deque<Request> queue_;
  // The in-flight request. The PCAP is a serial device, so the core-op
  // completion closure captures only `this` and the request parks here —
  // keeping the closure inside the event queue's inline buffer.
  Request current_;
  bool busy_ = false;
  Stats stats_;
  double failure_probability_ = 0.0;
  util::Rng rng_;
  obs::CounterHandle loads_total_;     ///< vs_pcap_loads_total
  obs::CounterHandle queued_total_;    ///< vs_pcap_queued_total
  obs::CounterHandle failures_total_;  ///< vs_pcap_load_failures_total
  obs::CounterHandle bytes_total_;     ///< vs_pcap_bytes_loaded_total
  obs::GaugeHandle queue_depth_;       ///< vs_pcap_queue_depth
  obs::HistogramHandle wait_ms_;       ///< vs_pcap_wait_ms
  obs::HistogramHandle load_ms_;       ///< vs_pcap_load_ms
};

}  // namespace vs::fpga
