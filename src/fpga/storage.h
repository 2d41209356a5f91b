// SD-card bitstream storage with an in-memory cache, plus the OCM mailbox
// latency model. (Application data's AXI DMA has no device model: a batch
// item's input transfer, BoardParams::dma_time, is charged inside the
// item's execution event; see BoardRuntime::launch_item.)
//
// The PR server loads pre-generated partial bitstreams from the SD card into
// DDR before pushing them through the PCAP. Once a bitstream has been read
// (or pre-warmed during cross-board switching), it stays memory-resident and
// the SD cost disappears — this is the "loads task bitstreams into SD
// storage in a new FPGA" pre-warming effect of §III-D.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "fpga/params.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace vs::fpga {

/// Key identifying a stored bitstream: caller packs (app, task range,
/// target slot, variant) into 64 bits — partial bitstreams are
/// placement-specific.
using BitstreamKey = std::uint64_t;

/// A set of bitstream keys as one sorted vector. A board's DDR store holds
/// a few hundred keys at most, so a binary search over contiguous memory
/// beats hashing, and lookups never allocate.
class BitstreamKeySet {
 public:
  [[nodiscard]] bool contains(BitstreamKey key) const {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    return it != keys_.end() && *it == key;
  }
  /// Adds `key`; false when it was already present.
  bool insert(BitstreamKey key) {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it != keys_.end() && *it == key) return false;
    keys_.insert(it, key);
    return true;
  }
  void clear() noexcept { keys_.clear(); }
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

 private:
  std::vector<BitstreamKey> keys_;  ///< ascending, no duplicates
};

/// SD-card bitstream store: a residency cache in front of the card. A
/// read's cost is returned synchronously by fetch_time(), and the caller
/// charges it to the core op that performs the PR (BoardRuntime adds it to
/// the PCAP load's duration), so the card schedules no events of its own.
class SdCard {
 public:
  explicit SdCard(const BoardParams& params) : params_(params) {}

  /// The read time staging `key` costs (0 when resident). Marks the key
  /// resident and counts a miss when it was not.
  [[nodiscard]] sim::SimDuration fetch_time(BitstreamKey key,
                                            std::int64_t bytes) {
    if (!cache_.insert(key)) return 0;
    ++misses_;
    return params_.sd_read_time(bytes);
  }

  /// Placement-aware fetch with bitstream relocation: `content_key`
  /// identifies the task logic independent of the target slot. An exact
  /// (key) hit is free; when only another slot's variant of the same
  /// content is resident, the variant is produced by an in-memory
  /// copy-and-patch (relocation) instead of an SD read.
  [[nodiscard]] sim::SimDuration fetch_time(BitstreamKey key,
                                            BitstreamKey content_key,
                                            std::int64_t bytes) {
    if (!cache_.insert(key)) return 0;
    if (!content_.insert(content_key)) {
      ++relocations_;
      return params_.reloc_time(bytes);
    }
    ++misses_;
    return params_.sd_read_time(bytes);
  }

  [[nodiscard]] std::int64_t relocations() const noexcept {
    return relocations_;
  }

  /// Pre-warming: marks `key` resident without charging read time to the
  /// critical path (the transfer happened in the background).
  void prewarm(BitstreamKey key) { cache_.insert(key); }

  [[nodiscard]] bool cached(BitstreamKey key) const {
    return cache_.contains(key);
  }
  /// Placement-specific bitstreams resident in DDR.
  [[nodiscard]] std::size_t cached_count() const noexcept {
    return cache_.size();
  }
  [[nodiscard]] std::int64_t misses() const noexcept { return misses_; }
  /// Empties the placement-specific cache. The next fetch of a dropped key
  /// misses again; a content-keyed fetch of its content relocates.
  void drop_cache() { cache_.clear(); }

 private:
  const BoardParams& params_;
  BitstreamKeySet cache_;
  BitstreamKeySet content_;
  std::int64_t misses_ = 0;
  std::int64_t relocations_ = 0;
};

/// On-Chip Memory mailbox: the PR server posts completion notices to the
/// scheduler through the OCM; delivery costs a small fixed latency.
class Ocm {
 public:
  Ocm(sim::Simulator& sim, const BoardParams& params)
      : sim_(sim), params_(params) {}

  /// Delivers `deliver` (any void() callable, built in its event's slot)
  /// after the mailbox latency.
  template <typename F>
  void post(F&& deliver) {
    ++messages_;
    sim_.schedule(params_.ocm_message_latency, std::forward<F>(deliver));
  }

  [[nodiscard]] std::int64_t messages() const noexcept { return messages_; }

 private:
  sim::Simulator& sim_;
  const BoardParams& params_;
  std::int64_t messages_ = 0;
};

}  // namespace vs::fpga
