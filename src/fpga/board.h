// A simulated FPGA board: PS (two ARM cores, PCAP, OCM, SD card) plus PL
// (the slot fabric). DMA paths have no device object: BoardParams carries
// their timing, which BoardRuntime charges per item. The BoardRuntime in
// src/runtime drives the board; schedulers never touch it directly.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fpga/fabric.h"
#include "fpga/params.h"
#include "fpga/pcap.h"
#include "fpga/slot.h"
#include "fpga/storage.h"
#include "sim/core.h"
#include "sim/simulator.h"

namespace vs::fpga {

class Board {
 public:
  Board(sim::Simulator& sim, std::string name, FabricConfig fabric,
        BoardParams params = {})
      : sim_(sim),
        name_(std::move(name)),
        params_(params),
        fabric_(fabric),
        fabric_capacity_(reconfigurable_capacity(fabric, params_)),
        slots_(make_slots(fabric, params_)),
        core0_(sim, name_ + ".PS0"),
        core1_(sim, name_ + ".PS1"),
        pcap_(sim),
        sdcard_(params_),
        ocm_(sim, params_) {}

  Board(const Board&) = delete;
  Board& operator=(const Board&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const BoardParams& params() const noexcept { return params_; }
  [[nodiscard]] const FabricConfig& fabric() const noexcept { return fabric_; }
  /// Total reconfigurable capacity of the current fabric (every slot).
  [[nodiscard]] const ResourceVector& fabric_capacity() const noexcept {
    return fabric_capacity_;
  }

  [[nodiscard]] std::vector<Slot>& slots() noexcept { return slots_; }
  [[nodiscard]] const std::vector<Slot>& slots() const noexcept {
    return slots_;
  }
  [[nodiscard]] Slot& slot(int id) { return slots_.at(static_cast<std::size_t>(id)); }

  /// Core 0 always hosts the scheduler; core 1 hosts the PR server when the
  /// policy runs in dual-core mode.
  [[nodiscard]] sim::Core& scheduler_core() noexcept { return core0_; }
  [[nodiscard]] sim::Core& pr_core() noexcept { return core1_; }

  [[nodiscard]] Pcap& pcap() noexcept { return pcap_; }
  [[nodiscard]] SdCard& sdcard() noexcept { return sdcard_; }
  [[nodiscard]] Ocm& ocm() noexcept { return ocm_; }

  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }

  [[nodiscard]] int count_slots(SlotKind kind) const noexcept {
    return kind == SlotKind::kBig ? fabric_.big_slots : fabric_.little_slots;
  }

  /// Rebuilds the fabric with a new configuration. Real hardware needs a
  /// full restart for this, which is exactly why the paper migrates to a
  /// pre-configured spare board instead; the cluster layer uses this only
  /// for spare-pool management between workloads.
  void reconfigure_fabric(FabricConfig config) {
    fabric_ = config;
    fabric_capacity_ = reconfigurable_capacity(config, params_);
    slots_ = make_slots(config, params_);
  }

 private:
  sim::Simulator& sim_;
  std::string name_;
  BoardParams params_;
  FabricConfig fabric_;
  ResourceVector fabric_capacity_;
  std::vector<Slot> slots_;
  sim::Core core0_;
  sim::Core core1_;
  Pcap pcap_;
  SdCard sdcard_;
  Ocm ocm_;
};

}  // namespace vs::fpga
