// FaultPlane: deterministic fault injection through the normal event kernel.
//
// The plane owns the fault schedule of a run. Scripted timeline entries are
// scheduled verbatim (after an index-validation pass); stochastic hazards
// draw exponential inter-arrival times from named PCG32 streams (one per
// board and hazard class, forked off the scenario's master seed) and
// re-arm themselves like the telemetry Sampler — a hazard chain stops when
// the simulation is otherwise idle or its next draw lands past the
// scenario horizon, so runs always drain. Repairs (board reboot, link
// restore) are scheduled unconditionally at injection time, one per
// outage.
//
// Correlated failure domains (FailureDomain) add a common-mode hazard on
// top of the independent chains: a rack event crashes every member board
// of a domain together (minus per-board survival draws, plus optional
// small jitter), with every stochastic choice taken from the domain's own
// "rack/<name>" stream — so rack schedules, like all others, are a pure
// function of the seed. The member crashes reuse the ordinary crash path
// (one kBoardCrash HealthEvent and one bounded reboot each), so recovery
// layers need no special casing beyond surviving simultaneous loss.
//
// The plane flips its own board-up/link-up registers and surfaces every
// transition as a HealthEvent to a single handler. It never touches
// runtimes or the Aurora link itself, so it depends only on sim/fpga/obs;
// the cluster manager's recovery policy drives recovery off these events.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "faults/scenario.h"
#include "fpga/board.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace vs::faults {

/// A fault or repair the plane injected, surfaced to the recovery handler.
struct HealthEvent {
  sim::SimTime time = 0;
  FaultKind kind = FaultKind::kBoardCrash;
  int board = -1;  ///< plane board id; -1 for link events
  int slot = -1;   ///< kSlotSeu only
};

class FaultPlane {
 public:
  FaultPlane(sim::Simulator& sim, FaultScenario scenario);

  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  /// Registers a board with the plane; returns its plane id (registration
  /// order). Applies the scenario's PCAP CRC model to the board (stream
  /// "pcap/<id>"). Call for every board before start().
  int add_board(fpga::Board& board);

  /// The recovery policy: invoked synchronously for every fault and repair.
  void set_handler(std::function<void(const HealthEvent&)> handler) {
    handler_ = std::move(handler);
  }

  /// Schedules the scripted timeline and arms the hazard chains (per-board
  /// crash/SEU, link flap, and one rack chain per failure domain).
  /// Scripted events are validated first: entries whose board / slot /
  /// domain index is out of range for the registered fleet are rejected
  /// with a warning (see rejected_scripted()) instead of flowing through
  /// unchecked into an out-of-range access at injection time.
  void start();

  [[nodiscard]] int board_count() const noexcept {
    return static_cast<int>(boards_.size());
  }
  [[nodiscard]] bool board_up(int board) const {
    return boards_.at(static_cast<std::size_t>(board)).up;
  }
  [[nodiscard]] bool link_up() const noexcept { return link_up_; }
  [[nodiscard]] const FaultScenario& scenario() const noexcept {
    return scenario_;
  }
  /// Every fault and repair injected so far, in injection order. Rack
  /// events appear as one kRackEvent record (board = domain index)
  /// followed by the member kBoardCrash records it caused.
  [[nodiscard]] const std::vector<HealthEvent>& injected() const noexcept {
    return injected_;
  }
  /// Scripted timeline entries dropped by start()'s validation pass.
  [[nodiscard]] int rejected_scripted() const noexcept {
    return rejected_scripted_;
  }
  /// Rack events injected so far (scripted + hazard-drawn).
  [[nodiscard]] int rack_events() const noexcept { return rack_events_; }

  /// Fraction of [0, now] this board spent up (1.0 before any fault).
  [[nodiscard]] double board_availability(int board, sim::SimTime now) const;
  /// Mean of board_availability over all registered boards.
  [[nodiscard]] double mean_availability(sim::SimTime now) const;

  /// Resolves vs_faults_injected_total / vs_faults_recovered_total
  /// (labelled by kind) and the per-board vs_board_available gauges.
  /// vs_rack_events_total registers only when the scenario carries failure
  /// domains, so rack-free exports stay byte-identical.
  /// Call before add_board to label boards registered afterwards too.
  void bind_metrics(obs::MetricsRegistry& registry);

 private:
  struct DomainRec {
    util::Rng rng;  ///< stream "rack/<name>": inter-arrival + survival + jitter
  };
  struct BoardRec {
    fpga::Board* board = nullptr;
    bool up = true;
    sim::SimTime down_since = 0;
    sim::SimDuration down_ns = 0;
    util::Rng crash_rng;  ///< stream "crash/<id>": inter-arrival draws
    util::Rng seu_rng;    ///< stream "seu/<id>": inter-arrival + slot draws
    obs::GaugeHandle available;  ///< vs_board_available{board=...}
  };

  void emit(FaultKind kind, int board, int slot);
  void apply_scripted(const FaultEvent& e);
  /// True when the scripted event's indices are in range for the
  /// registered fleet; warns and counts the rejection otherwise.
  [[nodiscard]] bool validate_scripted(const FaultEvent& e);
  void inject_crash(int board);
  void reboot(int board);
  void inject_link_down();
  void restore_link();
  void inject_seu(int board, int slot);
  void inject_rack_event(int domain);
  /// Next exponential inter-arrival for `rate` events per simulated second.
  [[nodiscard]] static sim::SimDuration exp_delay(util::Rng& rng,
                                                  double rate_per_s);
  /// The one hazard chain: draws the next delay of `kind`'s stream
  /// ("crash/<b>", "seu/<b>", "link/flap" or "rack/<d>"; `index` is the
  /// board or domain, -1 for the link) and schedules a firing that injects
  /// what a scripted entry of that kind would, then re-arms.
  void arm(FaultKind kind, int index);

  sim::Simulator& sim_;
  FaultScenario scenario_;
  std::function<void(const HealthEvent&)> handler_;
  std::vector<BoardRec> boards_;
  std::vector<DomainRec> domains_;
  bool link_up_ = true;
  util::Rng flap_rng_;  ///< stream "link/flap"
  std::vector<HealthEvent> injected_;
  int rejected_scripted_ = 0;
  int rack_events_ = 0;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::CounterHandle m_injected_[3];   ///< crash / link_down / slot_seu
  obs::CounterHandle m_recovered_[2];  ///< reboot / link_up
  obs::CounterHandle m_rack_events_;   ///< vs_rack_events_total (domains only)
};

}  // namespace vs::faults
