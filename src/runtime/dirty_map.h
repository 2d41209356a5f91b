// Fixed-granularity dirty-region tracking for an app's DDR state image.
//
// The checkpoint pass (runtime/checkpoint.h) and the pre-copy migration
// loop (cluster/migration.h) both want to move only the bytes that changed
// since *they* last looked — but they look at different times. A DirtyMap
// therefore keeps one region geometry and two independent consumer planes:
// every write marks both planes, and each consumer drains only its own, so
// a checkpoint never shortens a migration round's delta or vice versa.
//
// Region geometry is fixed at `granularity` bytes (the paper's DDR state
// images are 0.3–15 MB, so the default 64 KiB gives tens to hundreds of
// regions); the trailing region is partial and is accounted at its true
// byte size when drained.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace vs::runtime {

class DirtyMap {
 public:
  /// Consumer planes: the periodic checkpoint pass and the pre-copy
  /// migration loop drain independently.
  enum Plane : int { kCheckpoint = 0, kMigration = 1 };

  DirtyMap() = default;

  /// (Re)initialises the map for a `state_bytes` image split into
  /// `granularity`-byte regions, all regions clean in both planes.
  void reset(std::int64_t state_bytes, std::int64_t granularity) {
    assert(state_bytes >= 0 && granularity > 0);
    state_bytes_ = state_bytes;
    granularity_ = granularity;
    regions_ = static_cast<int>(
        (state_bytes + granularity - 1) / granularity);
    std::size_t words = static_cast<std::size_t>((regions_ + 63) / 64);
    for (auto& plane : bits_) {
      plane.assign(words, 0);
    }
  }

  [[nodiscard]] bool enabled() const noexcept { return granularity_ > 0; }
  [[nodiscard]] std::int64_t state_bytes() const noexcept {
    return state_bytes_;
  }
  [[nodiscard]] std::int64_t granularity() const noexcept {
    return granularity_;
  }
  [[nodiscard]] int regions() const noexcept { return regions_; }

  /// Marks [offset, offset + len) dirty in both planes. Ranges are clamped
  /// to the image (writes never land outside it, but clamping keeps the
  /// map robust if a caller over-approximates).
  void mark(std::int64_t offset, std::int64_t len) {
    if (!enabled() || len <= 0) return;
    std::int64_t end = std::min(offset + len, state_bytes_);
    offset = std::max<std::int64_t>(offset, 0);
    if (offset >= end) return;
    const auto first = static_cast<std::size_t>(offset / granularity_);
    const auto last = static_cast<std::size_t>((end - 1) / granularity_);
    // Regions first..last, one mask per word of 64 regions.
    for (std::size_t w = first / 64; w <= last / 64; ++w) {
      std::uint64_t mask = ~std::uint64_t{0};
      if (w == first / 64) mask <<= first % 64;
      if (w == last / 64) mask &= ~std::uint64_t{0} >> (63 - last % 64);
      bits_[kCheckpoint][w] |= mask;
      bits_[kMigration][w] |= mask;
    }
  }

  /// Marks the whole image dirty in both planes (fresh admission,
  /// re-unitise, restored progress).
  void mark_all() { mark(0, state_bytes_); }

  struct Drain {
    int regions = 0;          ///< dirty regions drained
    std::int64_t bytes = 0;   ///< their byte footprint (tail region partial)
  };

  /// Returns `plane`'s dirty footprint and clears it.
  Drain take(Plane plane) {
    Drain d = peek(plane);
    auto& bits = bits_[plane];
    std::fill(bits.begin(), bits.end(), 0);
    return d;
  }

  /// Dirty footprint of `plane` without clearing it.
  [[nodiscard]] Drain peek(Plane plane) const {
    Drain d;
    if (!enabled()) return d;
    const auto& bits = bits_[plane];
    for (const std::uint64_t w : bits) {
      d.regions += __builtin_popcountll(w);
    }
    d.bytes = static_cast<std::int64_t>(d.regions) * granularity_;
    // The trailing region is partial: account it at its true size.
    if (regions_ > 0) {
      int tail = regions_ - 1;
      bool tail_dirty =
          (bits[static_cast<std::size_t>(tail) / 64] >>
           (tail % 64)) & 1ULL;
      if (tail_dirty) {
        std::int64_t tail_bytes =
            state_bytes_ - static_cast<std::int64_t>(tail) * granularity_;
        d.bytes -= granularity_ - tail_bytes;
      }
    }
    return d;
  }

 private:
  std::int64_t state_bytes_ = 0;
  std::int64_t granularity_ = 0;
  int regions_ = 0;
  std::vector<std::uint64_t> bits_[2];
};

}  // namespace vs::runtime
