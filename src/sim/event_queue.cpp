#include "sim/event_queue.h"

#include <cassert>
#include <utility>

namespace vs::sim {

EventId EventQueue::enqueue(SimTime when, std::uint32_t index) {
  Slot& s = slab_[index];
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
    // One sift_down instead of the pop's sift_down plus a sift_up.
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
  if (index >= slab_.size()) return;
  Slot& s = slab_[index];
  // Generation mismatch: the event already fired (slot freed, possibly
  // reused). Empty fn with matching generation: already cancelled. Either
  // way the cancel is stale and must not touch live_.
  if (s.gen != gen_of(id) || !s.fn) return;
  s.fn.reset();  // release captures now; the node becomes a tombstone
  --live_;
}

SimTime EventQueue::next_time() const {
  // Tombstone removal does not change the observable state of the queue;
  // confine the const_cast here as the previous implementation did.
  const bool from_run = const_cast<EventQueue*>(this)->drop_tombstones();
  return from_run ? run_[run_head_].time : heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  const bool from_run = drop_tombstones();
  const Node head = from_run ? run_[run_head_] : heap_.front();
  std::uint32_t index = slot_of(head.id);
  Popped out{head.time, std::move(slab_[index].fn)};
  free_slot(index);
  if (from_run) {
    pop_run();
  } else {
    hole_ = true;  // refilled by the next heap-bound schedule, or settled
  }
  --live_;
  return out;
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
    if (slab_[index].fn) return from_run;
    free_slot(index);
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
    free_head_ = slab_[index].next_free;
    return index;
  }
  assert(slab_.size() < kNoSlot && "slab exhausted");
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void EventQueue::free_slot(std::uint32_t index) noexcept {
  Slot& s = slab_[index];
  s.fn.reset();
  ++s.gen;  // invalidates every outstanding id for this slot
  s.next_free = free_head_;
  free_head_ = index;
}

}  // namespace vs::sim
