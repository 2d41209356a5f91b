// Fault scenarios: the single configuration surface for every fault knob.
//
// A FaultScenario describes what can go wrong in a run — board crashes,
// Aurora link flaps, slot SEU/ECC upsets, PCAP CRC verification failures —
// either stochastically (per-component hazard rates, exponential
// inter-arrival) or as an explicit scripted timeline, or both. All
// randomness derives from one master seed through one rule:
// `scenario.stream(label)` forks a named PCG32 stream, so the same scenario
// produces bit-identical fault schedules on any platform and under any
// sweep parallelism.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"
#include "util/rng.h"

namespace vs::faults {

enum class FaultKind : std::uint8_t {
  kBoardCrash,   ///< board lost: slots gone, in-flight apps killed
  kBoardReboot,  ///< board back up (repair of kBoardCrash)
  kLinkDown,     ///< Aurora link flap: in-flight transfer aborts
  kLinkUp,       ///< link restored (repair of kLinkDown)
  kSlotSeu,      ///< SEU/ECC upset in one slot: configured logic dies
  kRackEvent,    ///< common-mode rack loss: every member board crashes
};

[[nodiscard]] constexpr const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kBoardCrash: return "board_crash";
    case FaultKind::kBoardReboot: return "board_reboot";
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kSlotSeu: return "slot_seu";
    case FaultKind::kRackEvent: return "rack_event";
  }
  return "?";
}

/// One scripted fault. `board` indexes the FaultPlane's registration order
/// (the cluster registers OL0..OLn-1 then BL0..BLn-1). For kSlotSeu a
/// negative `slot` means "draw the slot uniformly at injection time" from
/// the scenario's seu stream. For kRackEvent `board` indexes
/// FaultScenario::domains instead of a single board.
struct FaultEvent {
  sim::SimTime time = 0;
  FaultKind kind = FaultKind::kBoardCrash;
  int board = -1;  ///< -1 for link events; domain index for kRackEvent
  int slot = -1;   ///< kSlotSeu only
};

/// A correlated failure domain: boards sharing a PSU or cooling loop (a
/// rack). A rack event crashes every member together — the common-mode
/// regime that independent per-board hazards can never produce, and the
/// one that exercises spare-pool failover and multi-board evacuation
/// hardest. Every stochastic choice a rack event makes (inter-arrival,
/// per-board survival, per-board jitter) draws from the single stream
/// "rack/<name>", so rack schedules stay a pure function of the seed.
struct FailureDomain {
  std::string name;         ///< stream label suffix; must be unique
  std::vector<int> boards;  ///< plane board ids (registration order)
  /// Probability that an individual member rides the event out (redundant
  /// PSU feed). 0 (the default) takes the whole rack down.
  double survival_probability = 0.0;
  /// Max per-board crash stagger after the event fires, drawn uniformly
  /// per member. Keep it below the recovery detection latency so the
  /// losses land inside one detection window (the defining property of a
  /// common-mode event). 0 (the default) crashes all members at once.
  sim::SimDuration jitter = 0;
};

/// Stochastic hazard rates, per simulated second (exponential inter-arrival
/// times; 0 disables that hazard). The SEU rate applies per board, the
/// rack rate per failure domain.
struct HazardRates {
  double board_crash_per_s = 0.0;  ///< per board
  double link_flap_per_s = 0.0;    ///< whole link
  double slot_seu_per_s = 0.0;     ///< per board (slot drawn at injection)
  double rack_event_per_s = 0.0;   ///< per failure domain (needs domains)

  [[nodiscard]] bool any() const noexcept {
    return board_crash_per_s > 0 || link_flap_per_s > 0 ||
           slot_seu_per_s > 0 || rack_event_per_s > 0;
  }
};

/// Deterministic repair durations (MTTR inputs, not outputs: the measured
/// MTTR also contains detection, evacuation transfer, and re-placement).
struct RepairTimes {
  sim::SimDuration board_reboot = sim::seconds(2.0);  ///< crash -> back up
};

/// Aurora link outage per flap: flap -> link up.
inline constexpr sim::SimDuration kLinkOutage = sim::ms(200.0);

/// The one struct holding every fault knob. Disabled by default: a
/// default-constructed scenario schedules nothing and leaves every code
/// path untouched, so fault-free runs stay byte-identical.
struct FaultScenario {
  std::uint64_t seed = 2025;
  HazardRates hazards;
  RepairTimes repair;
  /// PCAP CRC verification failure probability per load (generalises the
  /// old ad-hoc Pcap::set_fault_model knob; the load retries ahead of the
  /// queue, consuming its full transfer time again).
  double pcap_crc_probability = 0.0;
  /// Explicit scripted faults, injected in addition to the hazards.
  std::vector<FaultEvent> timeline;
  /// Correlated failure domains (racks). Empty (the default) disables the
  /// rack hazard and scripted kRackEvent entries; boards may appear in
  /// several domains (a board on two shared feeds).
  std::vector<FailureDomain> domains;
  /// Hazard draws stop past this simulated time so runs always drain;
  /// scripted events and pending repairs still execute.
  sim::SimTime horizon = sim::seconds(600.0);

  [[nodiscard]] bool enabled() const noexcept {
    return pcap_crc_probability > 0 || hazards.any() || !timeline.empty();
  }

  /// THE seed-derivation rule: every stochastic fault consumer forks its
  /// own named stream off the master seed. Labels in use: "pcap/<board>",
  /// "crash/<board>", "seu/<board>", "link/flap", "rack/<domain>".
  [[nodiscard]] util::Rng stream(std::string_view label) const noexcept {
    return util::Rng(seed).fork(label);
  }
};

}  // namespace vs::faults
