// Calibration constants for the simulated ZCU216 board and cluster.
//
// Values are chosen to be plausible for a Zynq UltraScale+ RFSoC (XCZU49DR)
// and to land the paper's headline ratios; DESIGN.md §3.2 documents each
// choice. All of them are plain data so experiments can perturb them.
#pragma once

#include <cstdint>

#include "fpga/resources.h"
#include "sim/time.h"

namespace vs::fpga {

struct BoardParams {
  // ---- Fabric capacity (XCZU49DR-class, after carving the static region).
  ResourceVector little_slot{38'000, 76'000, 96, 360};
  ResourceVector big_slot{76'000, 152'000, 192, 720};

  // ---- PCAP (Processor Configuration Access Port).
  // Effective sustained bandwidth; the theoretical peak is ~400 MB/s but
  // measured DFX throughput on UltraScale+ through the PCAP driver path is
  // materially lower (~128 MB/s is the commonly reported figure).
  double pcap_bandwidth_bytes_per_s = 128e6;
  sim::SimDuration pcap_fixed_overhead = sim::ms(1.0);  ///< per-PR setup

  // ---- Partial bitstream sizes (proportional to region size).
  std::int64_t little_bitstream_bytes = 12'000'000;  // ≈ 49 ms PR
  std::int64_t big_bitstream_bytes = 24'000'000;     // ≈ 97 ms PR
  // Exclusive baseline: monolithic full-fabric bitstream plus the PS-side
  // teardown/re-init of the whole shell (clocks, AXI, drivers) that full
  // reconfiguration entails on a real board.
  std::int64_t full_bitstream_bytes = 90'000'000;
  sim::SimDuration full_reconfig_restart = sim::ms(1200.0);

  // ---- SD card bitstream storage.
  double sd_bandwidth_bytes_per_s = 80e6;
  sim::SimDuration sd_seek_overhead = sim::ms(0.5);
  // Bitstream relocation: partial bitstreams are placement-specific, but
  // once one slot's variant of a task is DDR-resident, the variant for a
  // different slot is produced by an in-memory copy with frame-address
  // patching instead of a fresh SD read.
  double reloc_bandwidth_bytes_per_s = 1e9;
  sim::SimDuration reloc_overhead = sim::ms(0.5);

  [[nodiscard]] sim::SimDuration reloc_time(std::int64_t bytes) const {
    return reloc_overhead +
           static_cast<sim::SimDuration>(
               static_cast<double>(bytes) / reloc_bandwidth_bytes_per_s *
               1e9);
  }

  // ---- AXI DMA for application data.
  double dma_bandwidth_bytes_per_s = 4e9;
  sim::SimDuration dma_setup = sim::us(5.0);

  // ---- OCM mailbox between PR server and scheduler cores.
  sim::SimDuration ocm_message_latency = sim::us(2.0);

  // ---- DDR checkpoint snapshots (runtime::CheckpointPolicy).
  // Snapshots copy DDR-resident progress (descriptors, staging headers,
  // queued inter-stage buffers) into a reserved checkpoint region; the copy
  // runs at DDR-to-DDR bandwidth and holds the issuing core.
  double ckpt_bandwidth_bytes_per_s = 8e9;
  sim::SimDuration ckpt_fixed_overhead = sim::us(10.0);  ///< per-pass setup

  [[nodiscard]] sim::SimDuration ckpt_snapshot_time(std::int64_t bytes) const {
    return ckpt_fixed_overhead +
           static_cast<sim::SimDuration>(
               static_cast<double>(bytes) / ckpt_bandwidth_bytes_per_s * 1e9);
  }

  /// Dirty-delta snapshot pass: the copy engine walks a region list instead
  /// of the whole image, so the per-pass setup is cheaper; the copied bytes
  /// still move at DDR-to-DDR bandwidth.
  sim::SimDuration ckpt_delta_fixed_overhead = sim::us(5.0);

  [[nodiscard]] sim::SimDuration ckpt_delta_time(
      std::int64_t dirty_bytes) const {
    return ckpt_delta_fixed_overhead +
           static_cast<sim::SimDuration>(static_cast<double>(dirty_bytes) /
                                         ckpt_bandwidth_bytes_per_s * 1e9);
  }

  // ---- Hypervisor core operation costs (bare-metal ARM Cortex-A53).
  sim::SimDuration sched_pass_cost = sim::us(20.0);   ///< one scheduling pass
  sim::SimDuration launch_op_cost = sim::us(50.0);    ///< buffer alloc + DMA kick

  [[nodiscard]] sim::SimDuration pcap_load_time(std::int64_t bytes) const {
    return pcap_fixed_overhead +
           static_cast<sim::SimDuration>(
               static_cast<double>(bytes) / pcap_bandwidth_bytes_per_s * 1e9);
  }
  [[nodiscard]] sim::SimDuration sd_read_time(std::int64_t bytes) const {
    return sd_seek_overhead +
           static_cast<sim::SimDuration>(
               static_cast<double>(bytes) / sd_bandwidth_bytes_per_s * 1e9);
  }
  [[nodiscard]] sim::SimDuration dma_time(std::int64_t bytes) const {
    return dma_setup + static_cast<sim::SimDuration>(
                           static_cast<double>(bytes) /
                           dma_bandwidth_bytes_per_s * 1e9);
  }
};

struct LinkParams {
  // Aurora over GT transceivers (zSFP+), 10 Gb/s line rate.
  double bandwidth_bytes_per_s = 1.25e9;
  sim::SimDuration setup_latency = sim::us(20.0);
  /// Retry backoff base after a link flap aborts a transfer: the aborted
  /// transfer restarts retry_backoff * 2^(attempts-1) after the link comes
  /// back (exponent capped at 6).
  sim::SimDuration retry_backoff = sim::ms(10.0);

  [[nodiscard]] sim::SimDuration transfer_time(std::int64_t bytes) const {
    return setup_latency + static_cast<sim::SimDuration>(
                               static_cast<double>(bytes) /
                               bandwidth_bytes_per_s * 1e9);
  }
};

}  // namespace vs::fpga
