// Reconfigurable slot state machine.
//
// A slot is a DFX reconfigurable region: it is idle, being reconfigured
// through the PCAP, configured with a task's partial bitstream, or executing
// a batch item of that task. The BoardRuntime drives transitions; the slot
// enforces their legality.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>

#include "fpga/resources.h"
#include "sim/time.h"

namespace vs::fpga {

enum class SlotKind : std::uint8_t { kLittle, kBig };

[[nodiscard]] constexpr const char* to_string(SlotKind kind) noexcept {
  return kind == SlotKind::kBig ? "Big" : "Little";
}

enum class SlotState : std::uint8_t {
  kIdle,           ///< no bitstream configured
  kReconfiguring,  ///< PCAP load in flight (DFX decoupler engaged)
  kConfigured,     ///< task logic present, not executing
  kExecuting,      ///< running one batch item
};

[[nodiscard]] constexpr const char* to_string(SlotState s) noexcept {
  switch (s) {
    case SlotState::kIdle: return "idle";
    case SlotState::kReconfiguring: return "reconfiguring";
    case SlotState::kConfigured: return "configured";
    case SlotState::kExecuting: return "executing";
  }
  return "?";
}

class Slot {
 public:
  Slot(int id, SlotKind kind, ResourceVector capacity)
      : id_(id), kind_(kind), capacity_(capacity) {}

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] SlotKind kind() const noexcept { return kind_; }
  [[nodiscard]] const ResourceVector& capacity() const noexcept {
    return capacity_;
  }
  [[nodiscard]] SlotState state() const noexcept { return state_; }
  [[nodiscard]] int occupant_app() const noexcept { return occupant_app_; }

  [[nodiscard]] std::string name() const {
    return std::string(kind_ == SlotKind::kBig ? "B" : "L") +
           std::to_string(id_);
  }

  /// DFX decoupler engages; previous logic is discarded.
  void begin_reconfig(int app) {
    assert(state_ != SlotState::kExecuting &&
           "cannot reconfigure a slot mid-execution");
    state_ = SlotState::kReconfiguring;
    occupant_app_ = app;
  }

  /// PCAP load finished; logic is live.
  void finish_reconfig() {
    assert(state_ == SlotState::kReconfiguring);
    state_ = SlotState::kConfigured;
  }

  void begin_exec() {
    assert(state_ == SlotState::kConfigured);
    state_ = SlotState::kExecuting;
  }

  void finish_exec() {
    assert(state_ == SlotState::kExecuting);
    state_ = SlotState::kConfigured;
  }

  /// Clears the slot (task complete or preempted while configured).
  void release() {
    assert(state_ == SlotState::kConfigured || state_ == SlotState::kIdle);
    state_ = SlotState::kIdle;
    occupant_app_ = -1;
  }

  /// Crash path: unconditionally clears the slot from any state. An SEU
  /// kill or board crash loses the region's contents mid-reconfiguration
  /// or mid-execution — states release() legally cannot leave.
  void scrub() {
    state_ = SlotState::kIdle;
    occupant_app_ = -1;
  }

 private:
  int id_;
  SlotKind kind_;
  ResourceVector capacity_;
  SlotState state_ = SlotState::kIdle;
  int occupant_app_ = -1;
};

}  // namespace vs::fpga
