// Tests for the allocation-free event kernel: InlineEvent lifetime
// semantics (SBO, heap fallback, move-only captures, in-place building and
// firing on the hot path) and the slab-backed 4-ary-heap EventQueue
// (generation-tagged cancel, closures that fire in their stable slab slot
// while they schedule and cancel, FIFO determinism under interleaved
// schedule/cancel/take, equivalence with a reference model).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "sim/core.h"
#include "sim/event_queue.h"
#include "sim/inline_event.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace vs::sim {
namespace {

// ---- InlineEvent ----------------------------------------------------------

/// Counts constructions/destructions/moves of a capture, to pin down the
/// exact lifetime behaviour of closures stored in InlineEvent.
struct LifetimeStats {
  int constructed = 0;
  int destroyed = 0;
  int moves = 0;
};

struct Tracked {
  explicit Tracked(LifetimeStats* s) : stats(s) { ++stats->constructed; }
  Tracked(const Tracked& o) : stats(o.stats) { ++stats->constructed; }
  Tracked(Tracked&& o) noexcept : stats(o.stats) {
    ++stats->constructed;
    ++stats->moves;
  }
  ~Tracked() { ++stats->destroyed; }
  LifetimeStats* stats;
};

TEST(InlineEvent, InvokesStoredCallable) {
  int calls = 0;
  InlineEvent ev([&calls] { ++calls; });
  ASSERT_TRUE(static_cast<bool>(ev));
  ev();
  ev();
  EXPECT_EQ(calls, 2);
}

TEST(InlineEvent, EmptyAndNullptrSemantics) {
  InlineEvent a;
  InlineEvent b(nullptr);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_FALSE(static_cast<bool>(b));
  a = [] {};
  EXPECT_TRUE(static_cast<bool>(a));
  a = nullptr;
  EXPECT_FALSE(static_cast<bool>(a));
}

TEST(InlineEvent, MoveTransfersAndEmptiesSource) {
  int calls = 0;
  InlineEvent a([&calls] { ++calls; });
  InlineEvent b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: testing moved-from state
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
}

TEST(InlineEvent, MoveOnlyCaptureWorks) {
  auto p = std::make_unique<int>(41);
  int seen = 0;
  InlineEvent ev([p = std::move(p), &seen] { seen = *p + 1; });
  InlineEvent moved = std::move(ev);
  moved();
  EXPECT_EQ(seen, 42);
}

TEST(InlineEvent, DestructorRunsExactlyOnce) {
  LifetimeStats stats;
  {
    InlineEvent ev([t = Tracked(&stats)] { (void)t; });
    InlineEvent moved = std::move(ev);
    moved();  // invoking must not destroy the capture
    EXPECT_EQ(stats.destroyed, stats.constructed - 1);
  }
  // Every constructed copy (temporaries included) destroyed, none twice.
  EXPECT_EQ(stats.destroyed, stats.constructed);
}

TEST(InlineEvent, ResetDestroysCapture) {
  LifetimeStats stats;
  InlineEvent ev([t = Tracked(&stats)] { (void)t; });
  int live_before = stats.constructed - stats.destroyed;
  EXPECT_EQ(live_before, 1);
  ev.reset();
  EXPECT_EQ(stats.constructed, stats.destroyed);
  EXPECT_FALSE(static_cast<bool>(ev));
}

TEST(InlineEvent, SmallCapturesAreStoredInline) {
  auto small = [a = std::int64_t{1}, b = std::int64_t{2}, c = (void*)nullptr] {
    (void)a; (void)b; (void)c;
  };
  static_assert(InlineEvent::stores_inline<decltype(small)>(),
                "a 24-byte capture must not hit the heap");
  static_assert(sizeof(InlineEvent) <= 2 * InlineEvent::kInlineSize,
                "InlineEvent itself must stay compact");
}

TEST(InlineEvent, OversizedCaptureFallsBackToHeap) {
  LifetimeStats stats;
  {
    std::array<char, 128> big{};
    big[0] = 7;
    auto fn = [big, t = Tracked(&stats), &stats_ref = stats]() {
      stats_ref.moves += big[0];  // arbitrary observable effect
      (void)t;
    };
    static_assert(!InlineEvent::stores_inline<decltype(fn)>(),
                  "a 128-byte capture must take the heap fallback");
    InlineEvent ev(std::move(fn));
    InlineEvent moved = std::move(ev);  // relocates the pointer, not the closure
    int moves_before = stats.moves;
    moved();
    EXPECT_EQ(stats.moves, moves_before + 7);
  }
  EXPECT_EQ(stats.constructed, stats.destroyed);
}

TEST(InlineEvent, FireRunsOnceAndEmpties) {
  LifetimeStats stats;
  int calls = 0;
  InlineEvent ev([t = Tracked(&stats), &calls] {
    (void)t;
    ++calls;
  });
  const int moves = stats.moves;
  ev.fire();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(static_cast<bool>(ev));
  EXPECT_EQ(stats.moves, moves);  // run and destroyed where it lives
  EXPECT_EQ(stats.constructed, stats.destroyed);
}

TEST(InlineEvent, HotPathBuildsCallbacksWhereTheyRun) {
  // A caller's lambda is moved once, into the slot it runs from: the slab
  // slot for Simulator::schedule, and for sim::Core::submit on an idle core
  // the op's completion event, where it is wrapped with the core's
  // completion steps. An EventFn argument is moved into the slab once.
  // sim.run() then fires each in its slot and moves none of them.
  LifetimeStats stats;
  Simulator sim;
  // Grow the slab first: its growth relocates pending closures too.
  for (int i = 0; i < 8; ++i) sim.schedule(0, [] {});
  sim.run();
  int ran = 0;
  sim.schedule(5, [t = Tracked(&stats), &ran] {
    (void)t;
    ++ran;
  });
  EXPECT_EQ(stats.moves, 1);
  Core core(sim, "c0");
  core.submit(7, [t = Tracked(&stats), &ran] {
    (void)t;
    ++ran;
  });
  EXPECT_EQ(stats.moves, 2);
  EventFn fn([t = Tracked(&stats), &ran] {
    (void)t;
    ++ran;
  });
  EXPECT_EQ(stats.moves, 3);
  sim.schedule_at(9, std::move(fn));
  EXPECT_EQ(stats.moves, 4);
  sim.run();
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(stats.moves, 4);
  EXPECT_EQ(stats.constructed, stats.destroyed);
}

// ---- EventQueue: cancel accounting and id reuse ---------------------------

TEST(EventQueueSlab, CancelAfterPopIsNoOpAndSizeStaysCorrect) {
  // Regression: the old vector<bool> design let a cancel of an id that had
  // already fired decrement live_, underreporting size().
  EventQueue q;
  int fired = 0;
  EventId a = q.schedule(10, [&] { ++fired; });
  q.schedule(20, [&] { ++fired; });
  EXPECT_EQ(q.size(), 2u);
  test::fire_next(q);  // fires a
  EXPECT_EQ(q.size(), 1u);
  q.cancel(a);  // stale: a already fired
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  test::fire_next(q);
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueSlab, StaleCancelOnReusedSlotIsNoOp) {
  EventQueue q;
  int fired = 0;
  EventId a = q.schedule(10, [&] { fired += 1; });
  test::fire_next(q);  // frees a's slot
  // The next schedule reuses the slot; its generation tag differs.
  q.schedule(20, [&] { fired += 10; });
  q.cancel(a);  // must not kill the new occupant
  EXPECT_EQ(q.size(), 1u);
  test::fire_next(q);
  EXPECT_EQ(fired, 11);
}

TEST(EventQueueSlab, DoubleCancelDecrementsOnce) {
  EventQueue q;
  EventId a = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(a);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueSlab, CancelOfNeverIssuedIdIsNoOp) {
  EventQueue q;
  q.schedule(10, [] {});
  q.cancel(0xFFFF'FFFF'0000'1234ULL);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueSlab, CancelReleasesCaptureImmediately) {
  // Cancelled closures must free their captures right away, not when the
  // tombstone eventually surfaces at the heap root.
  EventQueue q;
  LifetimeStats stats;
  q.schedule(5, [] {});  // keeps the queue non-empty throughout
  EventId id = q.schedule(10, [t = Tracked(&stats)] { (void)t; });
  EXPECT_LT(stats.destroyed, stats.constructed);
  q.cancel(id);
  EXPECT_EQ(stats.destroyed, stats.constructed);
}

TEST(EventQueueSlab, SameTimeFifoSurvivesInterleavedCancels) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(q.schedule(100, [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 10; i += 2) q.cancel(ids[static_cast<size_t>(i)]);
  test::drain(q);
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(EventQueueSlab, TakeLeavesLaterEventsPending) {
  EventQueue q;
  int fired = 0;
  q.schedule(10, [&] { ++fired; });
  q.schedule(20, [&] { ++fired; });
  EXPECT_FALSE(q.take_due(9));
  EXPECT_EQ(q.size(), 2u);
  const EventQueue::Due due = q.take_due(15);
  ASSERT_TRUE(due);
  EXPECT_EQ(due.time, 10);
  EXPECT_EQ(q.size(), 1u);  // taken: no longer pending, not yet fired
  EXPECT_EQ(fired, 0);
  q.fire(due);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.take_due(15));
  EXPECT_EQ(test::fire_next(q), 20);
  EXPECT_FALSE(q.take_due(std::numeric_limits<SimTime>::max()));
}

TEST(EventQueueSlab, ClosureGrowsSlabWhileItRuns) {
  // An event fires in the slab slot it was built in. It schedules enough
  // events to add slab chunks while it runs, then reads its own captures:
  // the slot must not have moved, and no closure is moved at all.
  EventQueue q;
  LifetimeStats stats;
  int later = 0;
  std::array<std::int64_t, 4> seen{};
  q.schedule(1, [&q, &later, &seen, t = Tracked(&stats),
                 payload = std::array<std::int64_t, 3>{11, 22, 33}] {
    for (int i = 0; i < 1000; ++i) q.schedule(2 + i, [&later] { ++later; });
    seen = {payload[0], payload[1], payload[2], t.stats->constructed};
  });
  const int moves = stats.moves;
  EXPECT_EQ(test::fire_next(q), 1);
  EXPECT_EQ(seen, (std::array<std::int64_t, 4>{11, 22, 33, 2}));
  EXPECT_EQ(stats.moves, moves);
  EXPECT_EQ(stats.constructed, stats.destroyed);
  EXPECT_EQ(q.size(), 1000u);
  test::drain(q);
  EXPECT_EQ(later, 1000);
}

TEST(EventQueueSlab, CancellingItsOwnIdWhileFiringIsNoOp) {
  EventQueue q;
  int later = 0;
  EventId self = 0;
  self = q.schedule(10, [&] {
    const std::size_t before = q.size();
    q.cancel(self);
    EXPECT_EQ(q.size(), before);
    // The firing slot is not free yet: this event gets another one.
    q.schedule(15, [&later] { later += 10; });
    q.cancel(self);
    EXPECT_EQ(q.size(), before + 1);
  });
  q.schedule(20, [&later] { ++later; });
  EXPECT_EQ(test::fire_next(q), 10);
  q.cancel(self);  // fired: stale
  EXPECT_EQ(q.size(), 2u);
  test::drain(q);
  EXPECT_EQ(later, 11);
}

TEST(EventQueueSlab, FiringClosureCancelsAnotherPendingEvent) {
  EventQueue q;
  LifetimeStats stats;
  std::vector<int> fired;
  EventId victim = 0;
  q.schedule(10, [&] {
    fired.push_back(1);
    q.cancel(victim);
    // The victim's captures go at once, while this closure still runs.
    EXPECT_EQ(stats.destroyed, stats.constructed);
    EXPECT_EQ(q.size(), 1u);
  });
  victim = q.schedule(20, [&fired, t = Tracked(&stats)] {
    (void)t;
    fired.push_back(2);
  });
  q.schedule(30, [&fired] { fired.push_back(3); });
  test::drain(q);
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_EQ(stats.constructed, stats.destroyed);
}

// ---- EventQueue: property test against a reference model ------------------

/// Straightforward reference implementation of the queue's contract:
/// pending events ordered by (time, schedule sequence), lazy cancellation.
class ReferenceQueue {
 public:
  std::uint64_t schedule(SimTime when) {
    events_.push_back(Ref{when, next_seq_++, /*cancelled=*/false});
    return events_.size() - 1;
  }
  bool cancel(std::uint64_t handle) {
    Ref& r = events_[handle];
    if (r.cancelled || r.fired) return false;
    r.cancelled = true;
    return true;
  }
  [[nodiscard]] std::optional<std::uint64_t> pop() {
    const Ref* best = nullptr;
    for (const Ref& r : events_) {
      if (r.cancelled || r.fired) continue;
      if (best == nullptr || r.time < best->time ||
          (r.time == best->time && r.seq < best->seq)) {
        best = &r;
      }
    }
    if (best == nullptr) return std::nullopt;
    std::uint64_t handle =
        static_cast<std::uint64_t>(best - events_.data());
    events_[handle].fired = true;
    return handle;
  }
  [[nodiscard]] std::size_t live() const {
    std::size_t n = 0;
    for (const Ref& r : events_) n += (!r.cancelled && !r.fired) ? 1 : 0;
    return n;
  }
  /// Time of the earliest live event. Precondition: live() > 0.
  [[nodiscard]] SimTime next_time() const {
    SimTime best = std::numeric_limits<SimTime>::max();
    for (const Ref& r : events_) {
      if (!r.cancelled && !r.fired) best = std::min(best, r.time);
    }
    return best;
  }
  [[nodiscard]] SimTime time_of(std::uint64_t handle) const {
    return events_[handle].time;
  }

 private:
  struct Ref {
    SimTime time;
    std::uint64_t seq;
    bool cancelled = false;
    bool fired = false;
  };
  std::vector<Ref> events_;
  std::uint64_t next_seq_ = 0;
};

TEST(EventQueueProperty, MatchesReferenceUnderInterleavedOps) {
  // Random interleavings of schedule / cancel / take-and-fire, several
  // seeds, under two streams of schedule times. The uniform stream
  // scatters times over a small range. The timeline stream follows a
  // driver: a pre-sorted batch up front (an arrival timeline, which the
  // queue keeps in its time-ordered run), then a slowly advancing clock
  // (appended to the run) with some times a little behind it (which go to
  // the heap). Its takes keep pace with its schedules, so the run drains
  // and restarts, and half its cancels hit the newest events, so many land
  // inside the run. Times are coarse enough that run and heap nodes often
  // tie. Each take is bounded: sometimes first just before the due time
  // (it must take nothing), then at or after it. The firing closure may
  // cancel its own id (a no-op) or another event, live or stale. Every
  // fire is followed by one of the hold patterns (a take from the heap
  // leaves its root vacant until the next heap-bound schedule): a schedule
  // before the run's tail, which fills the root, or after it, which leaves
  // it vacant; a cancel of the fired id; or a take bounded just before the
  // next due time, with the root still vacant. The real queue must fire
  // exactly the same payloads in exactly the same order as the reference,
  // at the same times, and agree on size() throughout.
  constexpr SimTime kForever = std::numeric_limits<SimTime>::max();
  for (bool timeline : {false, true}) {
    for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 2025ULL}) {
      util::Rng rng(seed, /*stream=*/99);
      EventQueue q;
      ReferenceQueue ref;
      std::vector<std::uint64_t> fired;       // reference handles, in order
      std::vector<std::uint64_t> ref_fired;   // model's expectation
      // Indexed by reference handle: outstanding[h].second == h.
      std::vector<std::pair<EventId, std::uint64_t>> outstanding;
      // Handles the next firing closure cancels, on both queues.
      std::vector<std::uint64_t> cancel_in_fire;
      auto on_fire = [&](std::uint64_t handle) {
        fired.push_back(handle);
        for (std::uint64_t h : cancel_in_fire) {
          ref.cancel(h);
          q.cancel(outstanding[h].first);
        }
        cancel_in_fire.clear();
        EXPECT_EQ(q.size(), ref.live());
      };
      auto schedule = [&](SimTime when) {
        std::uint64_t handle = ref.schedule(when);
        EventId id =
            q.schedule(when, [&on_fire, handle] { on_fire(handle); });
        outstanding.emplace_back(id, handle);
      };

      SimTime clock = 0;  // timeline stream: the advancing clock
      if (timeline) {
        std::vector<SimTime> arrivals(300);
        for (SimTime& t : arrivals) t = rng.uniform_int(0, 100);
        std::sort(arrivals.begin(), arrivals.end());
        for (SimTime t : arrivals) schedule(t);
        clock = arrivals.back();
      }
      auto next_time = [&]() -> SimTime {
        if (!timeline) return rng.uniform_int(0, 50);
        if (rng.bernoulli(0.2)) {
          return std::max<SimTime>(0, clock - rng.uniform_int(0, 3));
        }
        clock += rng.uniform_int(0, 1);
        return clock;
      };
      auto pick_outstanding = [&] {
        auto last = static_cast<std::int64_t>(outstanding.size()) - 1;
        std::int64_t first = timeline && rng.bernoulli(0.5)
                                 ? std::max<std::int64_t>(0, last - 15)
                                 : 0;
        return static_cast<std::uint64_t>(rng.uniform_int(first, last));
      };
      // Ops 0..9: schedule below the first bound, cancel below the second,
      // take and fire otherwise. The uniform stream grows the queue.
      const std::int64_t schedule_below = timeline ? 4 : 5;
      const std::int64_t cancel_below = timeline ? 6 : 7;

      for (int step = 0; step < 4000; ++step) {
        std::int64_t op = rng.uniform_int(0, 9);
        if (op < schedule_below) {
          schedule(next_time());
        } else if (op < cancel_below && !outstanding.empty()) {
          const std::uint64_t handle = pick_outstanding();
          // May be stale (already fired or cancelled) — both sides must
          // treat it as a no-op then.
          ref.cancel(handle);
          q.cancel(outstanding[handle].first);
        } else if (!q.empty()) {  // take and fire, then a hold pattern
          auto expect = ref.pop();
          ASSERT_TRUE(expect.has_value());
          const SimTime due_at = ref.time_of(*expect);
          ASSERT_EQ(outstanding[*expect].second, *expect);
          if (rng.bernoulli(0.25)) {
            ASSERT_FALSE(q.take_due(due_at - 1))
                << "timeline " << timeline << " seed " << seed << " step "
                << step;
          }
          switch (rng.uniform_int(0, 3)) {
            case 0:  // its own id: already taken, so a no-op
              cancel_in_fire.push_back(*expect);
              break;
            case 1:
              cancel_in_fire.push_back(pick_outstanding());
              break;
            case 2:
              cancel_in_fire.push_back(*expect);
              cancel_in_fire.push_back(pick_outstanding());
              break;
            default:
              break;
          }
          const EventQueue::Due due =
              q.take_due(rng.bernoulli(0.5) ? due_at
                                            : due_at + rng.uniform_int(0, 2));
          ASSERT_TRUE(due);
          EXPECT_EQ(due.time, due_at);
          const std::size_t fired_before = fired.size();
          q.fire(due);
          ASSERT_EQ(fired.size(), fired_before + 1);
          ASSERT_EQ(fired.back(), *expect)
              << "timeline " << timeline << " seed " << seed << " step "
              << step;
          ASSERT_TRUE(cancel_in_fire.empty());
          ref_fired.push_back(*expect);
          const SimTime tail = timeline ? clock : 50;  // the run's tail, about
          switch (rng.uniform_int(0, 3)) {
            case 0:
              schedule(std::max<SimTime>(0, tail - rng.uniform_int(1, 5)));
              break;
            case 1:
              schedule(tail + rng.uniform_int(0, 2));
              break;
            case 2:  // stale: the fired event already fired
              q.cancel(outstanding[*expect].first);
              ref.cancel(*expect);
              break;
            default:
              if (!q.empty()) {
                ASSERT_FALSE(q.take_due(ref.next_time() - 1))
                    << "timeline " << timeline << " seed " << seed
                    << " step " << step;
              }
              break;
          }
        }
        ASSERT_EQ(q.size(), ref.live())
            << "timeline " << timeline << " seed " << seed << " step "
            << step;
        ASSERT_EQ(q.empty(), ref.live() == 0);
      }
      while (!q.empty()) {
        auto expect = ref.pop();
        ASSERT_TRUE(expect.has_value());
        EXPECT_EQ(test::fire_next(q), ref.time_of(*expect));
        ref_fired.push_back(*expect);
      }
      EXPECT_FALSE(q.take_due(kForever));
      EXPECT_EQ(fired, ref_fired)
          << "timeline " << timeline << " seed " << seed;
    }
  }
}

TEST(EventQueueProperty, RecordedScriptDeterminism) {
  // A fixed schedule/cancel script replayed twice must fire bit-identical
  // sequences — the determinism contract the grid benches rely on.
  auto run = [] {
    EventQueue q;
    std::vector<int> order;
    std::vector<EventId> ids;
    util::Rng rng(123, 5);
    for (int i = 0; i < 500; ++i) {
      auto when = static_cast<SimTime>(rng.uniform_int(0, 20));
      ids.push_back(q.schedule(when, [&order, i] { order.push_back(i); }));
      if (i % 7 == 3) q.cancel(ids[static_cast<size_t>(i / 2)]);
      if (i % 11 == 0 && !q.empty()) test::fire_next(q);
    }
    test::drain(q);
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace vs::sim
