// Pending-event set for the discrete-event kernel.
//
// Three cooperating structures (see docs/architecture.md, "Event kernel
// memory model"):
//
//  - a hand-rolled 4-ary min-heap of 16-byte (SimTime, EventId) PODs, so
//    sift operations move small trivially-copyable nodes and never touch a
//    closure. A take leaves the root vacant for the next heap-bound schedule
//    to fill with one sift_down (the DES "hold"); reads settle it first;
//  - beside it, a time-ordered run: a FIFO of the same nodes that takes
//    every node scheduled no earlier than the run's last one. The drivers
//    schedule their whole, pre-sorted arrival timeline up front, so it
//    lands here and never sifts; the heap holds only what the run cannot;
//  - a free-list slab of closure slots indexed by the low 32 bits of the
//    EventId, with a generation tag in the high 32 bits that makes cancel()
//    safe against id reuse (a stale cancel is a no-op, never a misfire).
//    The slab is a table of fixed-size chunks that never move, so a slot's
//    address is stable: an event fires in the slot it was built in, while
//    its own handler schedules more events and grows the slab.
//
// Equal-time events fire in schedule order: every slot carries a sequence
// number from one queue-wide counter, the heap orders by (time, seq), the
// run is sorted by (time, seq) by construction, and take_due() takes the
// earlier of the two heads. That FIFO tie-break is the whole event-ordering
// contract — with it, a simulation is a pure function of its inputs.
//
// Steady-state schedule/take/fire performs zero heap allocations: closures
// live in recycled slab slots (inline up to InlineEvent::kInlineSize bytes),
// chunks and the heap vector only grow to the high-water mark of pending
// events, and the run clears when consumed and drops its consumed prefix
// instead of growing, so it too stays bounded by its pending size.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
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
  /// cancel(). Events at equal times fire in scheduling order. The closure
  /// is built in its slab slot (an EventFn argument is moved there once).
  template <typename F>
  EventId schedule(SimTime when, F&& fn) {
    const std::uint32_t index = alloc_slot();
    slot(index).fn.emplace(std::forward<F>(fn));
    return enqueue(when, index);
  }

  /// Lazily cancels a pending event: the closure is destroyed immediately
  /// (releasing its captures) but the 16-byte node stays behind in the heap
  /// or the run as a tombstone, skipped when it surfaces. Cancelling an id
  /// that already fired, is firing or was already cancelled is a no-op.
  /// O(1).
  void cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// An event taken off the queue, to be run by fire(); a default Due (the
  /// queue had nothing due) converts to false.
  struct Due {
    SimTime time = 0;
    std::uint32_t slot = kNoSlot;
    explicit operator bool() const noexcept { return slot != kNoSlot; }
  };

  /// Takes the earliest live event off the queue if it is due by `until`
  /// (its time is not later): from then on it is no longer pending, and
  /// cancelling its id is a no-op. Events after `until` stay pending.
  /// Every taken event must be passed to fire() before the next take.
  Due take_due(SimTime until);

  /// Runs a taken event's closure in the slab slot it was built in,
  /// destroys it there and frees the slot. The closure may schedule and
  /// cancel freely: the slot is not reused, and does not move, until it
  /// returns.
  void fire(Due due) {
    Slot& s = slot(due.slot);
    s.fn.fire();
    s.next_free = free_head_;
    free_head_ = due.slot;
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr unsigned kArity = 4;
  /// Slots per slab chunk: the slab grows by 64 slots (6 KB) at a time.
  static constexpr unsigned kChunkBits = 6;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;

  /// What sifts through the heap (and queues in the run): one cache line
  /// holds four of these.
  struct Node {
    SimTime time;
    EventId id;
  };

  /// Closure storage, at one address from schedule to the end of its firing.
  struct Slot {
    EventFn fn;               ///< empty = cancelled tombstone, firing or vacant
    std::uint64_t seq = 0;    ///< scheduling order: FIFO tie-break
    std::uint32_t gen = 0;    ///< bumped on take or cancel: older ids mismatch
    std::uint32_t next_free = kNoSlot;
  };

  static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id);
  }
  static constexpr std::uint32_t gen_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  [[nodiscard]] Slot& slot(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkBits][index & kChunkMask];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t index) const noexcept {
    return chunks_[index >> kChunkBits][index & kChunkMask];
  }

  /// Strict weak order: (time, seq). Slab slots are pinned while their
  /// node is pending, so the tie-break key never moves.
  [[nodiscard]] bool earlier(const Node& a, const Node& b) const noexcept {
    if (a.time != b.time) return a.time < b.time;
    return slot(slot_of(a.id)).seq < slot(slot_of(b.id)).seq;
  }

  /// True when the run's head is the earliest pending node (live or not).
  [[nodiscard]] bool run_first() const noexcept {
    return run_head_ < run_.size() &&
           (heap_.empty() || earlier(run_[run_head_], heap_.front()));
  }

  /// Stamps the slot's sequence number and queues its node: schedule()'s
  /// work once the closure is in place.
  EventId enqueue(SimTime when, std::uint32_t index);

  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;
  void pop_node() noexcept;  ///< removes heap_[0], restores heap order
  /// Consumes the run's head.
  void pop_run() noexcept {
    if (++run_head_ == run_.size()) {
      run_.clear();  // fully consumed: keep the capacity, restart at the front
      run_head_ = 0;
    }
  }
  /// Settles a vacant root, then discards cancelled nodes, earliest first,
  /// up to the earliest live one; returns true when that one heads the run.
  /// Precondition: !empty().
  bool drop_tombstones();

  std::uint32_t alloc_slot();

  std::vector<Node> heap_;
  /// heap_[0] is vacant: take_due() left it for the next heap-bound
  /// schedule. Firing order cannot change, as (time, seq) is a strict
  /// total order.
  bool hole_ = false;
  /// The time-ordered run: run_[run_head_..] pending, sorted by (time, seq).
  std::vector<Node> run_;
  std::size_t run_head_ = 0;
  /// The slab: slot i is chunks_[i >> kChunkBits][i & kChunkMask]. Chunks
  /// are added as the slot count reaches them and never move or shrink.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slots_ = 0;  ///< slots ever handed out: the high-water mark
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;  ///< scheduled, not yet taken or cancelled
};

}  // namespace vs::sim
