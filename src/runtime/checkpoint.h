// Periodic DDR checkpointing of slot state.
//
// The crash model is a PL wedge: DDR survives, the fabric does not.
// Live migration (§III-D) can therefore evacuate any app whose progress is
// DDR-resident — but bundled apps bound to Big slots carry no portable
// progress, and a per-task app caught before its first committed item has
// nothing to evacuate either. A CheckpointPolicy closes that gap: every
// `interval` the runtime snapshots the expanded per-task progress of each
// started app into DDR (charging the snapshot DMA on the scheduler core so
// the cost shows up in response times), and BoardRuntime::crash() restores
// apps that are not live-evacuable to their last snapshot instead of
// killing them. The re-run window per app is bounded by one interval.
//
// Delta mode stops re-copying the whole image every interval: a
// DirtyMap (runtime/dirty_map.h) records which fixed-granularity regions
// each committed item wrote, and the pass copies only those — a
// base-plus-delta chain, compacted back into a full base every
// `compact_every` deltas so the restore chain (shipped on crash
// evacuation) stays bounded at one base plus a handful of deltas. Both
// modes price the app's one DDR image layout (board_runtime.cpp:
// header_bytes, input_area, live_image_bytes), the same one a live
// migration ships.
//
// Disabled by default: a default-constructed policy schedules nothing and
// leaves every code path untouched, so checkpoint-free runs stay
// byte-identical.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace vs::runtime {

/// Fixed cost of a delta snapshot record: region list + expanded progress
/// vector + chain link back to the previous snapshot.
constexpr std::int64_t kCkptDeltaHeaderBytes = 256;

struct CheckpointPolicy {
  bool enabled = false;
  /// Snapshot cadence. The tick chain arms on first admission and re-arms
  /// while the board has active apps, so drained boards schedule nothing.
  sim::SimDuration interval = sim::ms(25.0);
  /// Dirty-delta mode: passes copy only regions written since the last
  /// snapshot (charged via BoardParams::ckpt_delta_time) instead of the
  /// whole image. Off by default: every pass copies the whole image.
  bool delta = false;
  /// Region size of the per-app DDR dirty map. Shared with the pre-copy
  /// migration loop (cluster/migration.h), which tracks its own plane of
  /// the same map.
  std::int64_t granularity = 64 * 1024;
  /// After this many chained deltas the next pass rewrites a full base
  /// snapshot (compaction), bounding restore cost.
  int compact_every = 8;

  [[nodiscard]] bool active() const noexcept {
    return enabled && interval > 0;
  }
  [[nodiscard]] bool delta_active() const noexcept {
    return active() && delta && granularity > 0;
  }
};

/// Per-board checkpoint pass accounting. `skipped_clean` and
/// `skipped_empty` split what used to be one silent skip: a *clean* skip
/// refreshes `ckpt_time` (the existing snapshot still reflects "now"),
/// while an *empty* skip means the app has no committed progress yet and
/// there is nothing to refresh — conflating the two made
/// `vs_ckpt_skipped_total` unattributable.
struct CheckpointStats {
  std::int64_t bases = 0;          ///< full base snapshots committed
  std::int64_t deltas = 0;         ///< dirty-delta snapshots committed
  std::int64_t compactions = 0;    ///< bases that closed a delta chain
  std::int64_t base_bytes = 0;     ///< bytes copied by base snapshots
  std::int64_t delta_bytes = 0;    ///< bytes copied by deltas (incl. headers)
  std::int64_t dirty_regions = 0;  ///< regions shipped across all deltas
  std::int64_t skipped_clean = 0;  ///< pass skips: snapshot exists, no change
  std::int64_t skipped_empty = 0;  ///< pass skips: nothing committed yet

  [[nodiscard]] std::int64_t total_bytes() const noexcept {
    return base_bytes + delta_bytes;
  }
  CheckpointStats& operator+=(const CheckpointStats& o) noexcept {
    bases += o.bases;
    deltas += o.deltas;
    compactions += o.compactions;
    base_bytes += o.base_bytes;
    delta_bytes += o.delta_bytes;
    dirty_regions += o.dirty_regions;
    skipped_clean += o.skipped_clean;
    skipped_empty += o.skipped_empty;
    return *this;
  }
};

}  // namespace vs::runtime
