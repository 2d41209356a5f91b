#include "sim/event_queue.h"

#include <cassert>
#include <utility>

namespace vs::sim {

EventId EventQueue::enqueue(SimTime when, std::uint32_t index) {
  Slot& s = slot(index);
  assert(s.fn && "scheduling an empty event");
  s.seq = next_seq_++;
  EventId id = (static_cast<EventId>(s.gen) << 32) | index;
  if (run_.empty() || when >= run_.back().time) {
    // Not earlier than anything in the run (and later in seq than all of
    // it): appending keeps the run sorted by (time, seq).
    if (run_head_ > 0 && run_.size() == run_.capacity() &&
        2 * run_head_ >= run_.size()) {
      // A run that never drains would otherwise grow forever: drop the
      // consumed half instead of reallocating (sim::Core::submit's rule).
      run_.erase(run_.begin(),
                 run_.begin() + static_cast<std::ptrdiff_t>(run_head_));
      run_head_ = 0;
    }
    run_.push_back(Node{when, id});
  } else if (hole_) {
    // One sift_down instead of the take's sift_down plus a sift_up.
    hole_ = false;
    heap_.front() = Node{when, id};
    sift_down(0);
  } else {
    heap_.push_back(Node{when, id});
    sift_up(heap_.size() - 1);
  }
  ++live_;
  return id;
}

void EventQueue::cancel(EventId id) {
  std::uint32_t index = slot_of(id);
  if (index >= slots_) return;
  Slot& s = slot(index);
  // Generation mismatch: the event was already taken to fire or cancelled
  // (the slot possibly reused since). Either way the cancel is stale and
  // must not touch live_.
  if (s.gen != gen_of(id)) return;
  s.fn.reset();  // release captures now; the node becomes a tombstone
  ++s.gen;
  --live_;
}

EventQueue::Due EventQueue::take_due(SimTime until) {
  if (live_ == 0) return {};
  const bool from_run = drop_tombstones();
  const Node head = from_run ? run_[run_head_] : heap_.front();
  if (head.time > until) return {};
  if (from_run) {
    pop_run();
  } else {
    hole_ = true;  // refilled by the next heap-bound schedule, or settled
  }
  ++slot(slot_of(head.id)).gen;  // cancelling the taken id is now a no-op
  --live_;
  return {head.time, slot_of(head.id)};
}

bool EventQueue::drop_tombstones() {
  if (hole_) {
    hole_ = false;
    pop_node();
  }
  // Tombstones leave in (time, seq) order, the order their events would
  // have fired in, so the run and the heap are always consumed in step.
  for (;;) {
    const bool from_run = run_first();
    assert((from_run || !heap_.empty()) && "queue is empty");
    const std::uint32_t index =
        slot_of(from_run ? run_[run_head_].id : heap_.front().id);
    Slot& s = slot(index);
    if (s.fn) return from_run;
    s.next_free = free_head_;
    free_head_ = index;
    if (from_run) {
      pop_run();
    } else {
      pop_node();
    }
  }
}

void EventQueue::pop_node() noexcept {
  assert(!heap_.empty());
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::sift_up(std::size_t i) noexcept {
  Node node = heap_[i];
  while (i > 0) {
    std::size_t parent = (i - 1) / kArity;
    if (!earlier(node, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = node;
}

void EventQueue::sift_down(std::size_t i) noexcept {
  Node node = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t last = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], node)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = node;
}

std::uint32_t EventQueue::alloc_slot() {
  if (free_head_ != kNoSlot) {
    std::uint32_t index = free_head_;
    free_head_ = slot(index).next_free;
    return index;
  }
  assert(slots_ < kNoSlot && "slab exhausted");
  if ((slots_ & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkMask + 1));
  }
  return slots_++;
}

}  // namespace vs::sim
