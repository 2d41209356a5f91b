// Pending-event set for the discrete-event kernel.
//
// Two cooperating structures (see docs/architecture.md, "Event kernel
// memory model"):
//
//  - a hand-rolled 4-ary min-heap of 16-byte (SimTime, EventId) PODs, so
//    sift operations move small trivially-copyable nodes and never touch a
//    closure;
//  - a free-list slab of closure slots indexed by the low 32 bits of the
//    EventId, with a generation tag in the high 32 bits that makes cancel()
//    safe against id reuse (a stale cancel is a no-op, never a misfire).
//
// Equal-time events fire in schedule order: every slot carries a sequence
// number from one queue-wide counter, and the heap orders by (time, seq).
// That FIFO tie-break is the whole event-ordering contract — with it, a
// simulation is a pure function of its inputs.
//
// Steady-state schedule/pop performs zero heap allocations: closures live
// in recycled slab slots (inline up to InlineEvent::kInlineSize bytes) and
// the heap vector only grows to the high-water mark of pending events.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/inline_event.h"
#include "sim/time.h"

namespace vs::sim {

/// Packs (generation << 32 | slab slot). Treat as opaque: ids are unique
/// across a queue's lifetime until a slot's 32-bit generation wraps (2^32
/// reuses of one slot ≈ 10^13 events — beyond any simulation here).
using EventId = std::uint64_t;
using EventFn = InlineEvent;

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `when`. Returns an id usable with
  /// cancel(). Events at equal times fire in scheduling order.
  EventId schedule(SimTime when, EventFn fn);

  /// Lazily cancels a pending event: the closure is destroyed immediately
  /// (releasing its captures) but the 16-byte heap node stays behind as a
  /// tombstone, skipped when it surfaces. Cancelling an id that already
  /// fired or was already cancelled is a no-op. O(1).
  void cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] SimTime next_time() const;
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  struct Popped {
    SimTime time;
    EventFn fn;
  };

  /// Removes and returns the earliest live event. Precondition: !empty().
  Popped pop();

 private:
  /// What sifts through the heap: one cache line holds four of these.
  struct Node {
    SimTime time;
    EventId id;
  };

  /// Closure storage, stable in the slab while its node is in the heap.
  struct Slot {
    EventFn fn;               ///< empty = cancelled tombstone or vacant
    std::uint64_t seq = 0;    ///< scheduling order: FIFO tie-break
    std::uint32_t gen = 0;    ///< bumped on free; stale ids mismatch
    std::uint32_t next_free = kNoSlot;
  };

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr unsigned kArity = 4;

  static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id);
  }
  static constexpr std::uint32_t gen_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// Strict weak order: (time, seq). Slab slots are pinned while their
  /// node is in the heap, so the tie-break key never moves.
  [[nodiscard]] bool earlier(const Node& a, const Node& b) const noexcept {
    if (a.time != b.time) return a.time < b.time;
    return slab_[slot_of(a.id)].seq < slab_[slot_of(b.id)].seq;
  }

  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;
  void pop_node() noexcept;  ///< removes heap_[0], restores heap order
  void drop_tombstones();    ///< discards cancelled nodes at the root

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t index) noexcept;

  std::vector<Node> heap_;
  std::vector<Slot> slab_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;  ///< scheduled, not yet fired or cancelled
};

}  // namespace vs::sim
