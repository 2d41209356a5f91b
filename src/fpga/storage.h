// SD-card bitstream storage with an in-memory cache, plus the OCM mailbox
// and AXI DMA latency models.
//
// The PR server loads pre-generated partial bitstreams from the SD card into
// DDR before pushing them through the PCAP. Once a bitstream has been read
// (or pre-warmed during cross-board switching), it stays memory-resident and
// the SD cost disappears — this is the "loads task bitstreams into SD
// storage in a new FPGA" pre-warming effect of §III-D.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
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

/// SD-card controller: a serial device with an in-memory (DDR) cache.
/// Reads go through its own DMA queue — one transfer at a time — and do
/// not occupy a CPU core or the PCAP, so bitstream staging overlaps
/// reconfiguration and execution (the PR server double-buffers), but a
/// burst of distinct bitstream requests still queues at the card.
class SdCard {
 public:
  SdCard(sim::Simulator& sim, const BoardParams& params)
      : sim_(sim), params_(params) {}

  /// Makes `key` memory-resident, then fires `on_ready`: immediately when
  /// cached, after a queued SD read of `bytes` otherwise. `on_blocked`, if
  /// set, fires once when the read had to wait behind another transfer
  /// (PR-contention accounting).
  void fetch(BitstreamKey key, std::int64_t bytes, sim::EventFn on_ready,
             sim::EventFn on_blocked = nullptr) {
    if (cache_.contains(key)) {
      on_ready();
      return;
    }
    ++misses_;
    Pending p{key, bytes, std::move(on_ready)};
    if (busy_) {
      if (on_blocked) on_blocked();
      queue_.push_back(std::move(p));
      return;
    }
    start(std::move(p));
  }

  /// Synchronous variant for tests and estimators: the read time a cold
  /// fetch of `key` would take (0 when cached). Marks the key cached.
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
  [[nodiscard]] bool busy() const noexcept { return busy_; }
  [[nodiscard]] std::size_t backlog() const noexcept { return queue_.size(); }
  [[nodiscard]] std::int64_t misses() const noexcept { return misses_; }
  void drop_cache() { cache_.clear(); }

 private:
  struct Pending {
    BitstreamKey key = 0;
    std::int64_t bytes = 0;
    sim::EventFn on_ready;
  };

  void start(Pending p) {
    busy_ = true;
    sim::SimDuration read_time = params_.sd_read_time(p.bytes);
    // The card is serial: park the in-flight read in current_ so the
    // completion event captures only `this` (stays inline in the queue).
    current_ = std::move(p);
    sim_.schedule(read_time, [this] { finish_read(); });
  }

  void finish_read() {
    cache_.insert(current_.key);
    // Move out first: on_ready may fetch again re-entrantly.
    Pending done = std::move(current_);
    busy_ = false;
    if (done.on_ready) done.on_ready();
    if (!busy_ && !queue_.empty()) {
      Pending next = std::move(queue_.front());
      queue_.pop_front();
      start(std::move(next));
    }
  }

  sim::Simulator& sim_;
  const BoardParams& params_;
  BitstreamKeySet cache_;
  BitstreamKeySet content_;
  std::deque<Pending> queue_;
  Pending current_;
  bool busy_ = false;
  std::int64_t misses_ = 0;
  std::int64_t relocations_ = 0;
};

/// On-Chip Memory mailbox: the PR server posts completion notices to the
/// scheduler through the OCM; delivery costs a small fixed latency.
class Ocm {
 public:
  Ocm(sim::Simulator& sim, const BoardParams& params)
      : sim_(sim), params_(params) {}

  void post(sim::EventFn deliver) {
    ++messages_;
    sim_.schedule(params_.ocm_message_latency, std::move(deliver));
  }

  [[nodiscard]] std::int64_t messages() const noexcept { return messages_; }

 private:
  sim::Simulator& sim_;
  const BoardParams& params_;
  std::int64_t messages_ = 0;
};

/// AXI DMA engine for application data. Transfers are not serialised: the
/// interconnect has ample parallel bandwidth relative to our payload sizes,
/// so each transfer simply takes bytes/bandwidth + setup.
class Dma {
 public:
  Dma(sim::Simulator& sim, const BoardParams& params)
      : sim_(sim), params_(params) {}

  void transfer(std::int64_t bytes, sim::EventFn on_done) {
    ++transfers_;
    bytes_moved_ += bytes;
    sim_.schedule(params_.dma_time(bytes), std::move(on_done));
  }

  [[nodiscard]] std::int64_t transfers() const noexcept { return transfers_; }
  [[nodiscard]] std::int64_t bytes_moved() const noexcept {
    return bytes_moved_;
  }

 private:
  sim::Simulator& sim_;
  const BoardParams& params_;
  std::int64_t transfers_ = 0;
  std::int64_t bytes_moved_ = 0;
};

}  // namespace vs::fpga
