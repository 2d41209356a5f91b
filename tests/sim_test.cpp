// Unit tests for the discrete-event simulation kernel: event ordering,
// cancellation, time semantics, and the serially-busy Core model.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "sim/core.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "test_helpers.h"

namespace vs::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  test::drain(q);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInSchedulingOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(100, [&fired, i] { fired.push_back(i); });
  }
  test::drain(q);
  ASSERT_EQ(fired.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  EventId a = q.schedule(10, [&] { ++fired; });
  q.schedule(20, [&] { ++fired; });
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  test::drain(q);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelAllMakesEmpty) {
  EventQueue q;
  EventId a = q.schedule(10, [] {});
  EventId b = q.schedule(20, [] {});
  q.cancel(a);
  q.cancel(b);
  EXPECT_TRUE(q.empty());
}

TEST(Simulator, AdvancesTimeToEvent) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule(ms(5.0), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, ms(5.0));
  EXPECT_EQ(sim.now(), ms(5.0));
}

TEST(Simulator, NestedSchedulingWorks) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule(10, [&] {
    times.push_back(sim.now());
    sim.schedule(10, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20}));
}

TEST(Simulator, RunUntilBoundStopsAndHoldsLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(100, [&] { ++fired; });
  sim.run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1, [&] { ++fired; });
  sim.schedule(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Core, RunsOpsSeriallyInFifoOrder) {
  Simulator sim;
  Core core(sim, "c0");
  std::vector<std::pair<int, SimTime>> done;
  core.submit(100, [&] { done.emplace_back(1, sim.now()); });
  core.submit(50, [&] { done.emplace_back(2, sim.now()); });
  core.submit(10, [&] { done.emplace_back(3, sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], (std::pair<int, SimTime>{1, 100}));
  EXPECT_EQ(done[1], (std::pair<int, SimTime>{2, 150}));
  EXPECT_EQ(done[2], (std::pair<int, SimTime>{3, 160}));
}

TEST(Core, BusyAndBacklogReflectQueue) {
  Simulator sim;
  Core core(sim, "c0");
  core.submit(100, [] {});
  core.submit(100, [] {});
  EXPECT_TRUE(core.busy());
  EXPECT_EQ(core.backlog(), 1u);
  sim.run();
  EXPECT_FALSE(core.busy());
  EXPECT_EQ(core.backlog(), 0u);
}

TEST(Core, AvailableAtAccountsForQueuedWork) {
  // A newly submitted op starts once the work queued ahead of it is done.
  Simulator sim;
  Core core(sim, "c0");
  SimTime idle_start = -1;
  core.submit(0, [&] { idle_start = sim.now(); });
  sim.run();
  EXPECT_EQ(idle_start, 0);
  core.submit(100, [] {});
  core.submit(50, [] {});
  SimTime queued_end = -1;
  core.submit(10, [&] { queued_end = sim.now(); });
  sim.run();
  EXPECT_EQ(queued_end, 150 + 10);
}

TEST(Core, CompletionCallbackCanResubmit) {
  Simulator sim;
  Core core(sim, "c0");
  std::vector<SimTime> ends;
  core.submit(10, [&] {
    ends.push_back(sim.now());
    core.submit(10, [&] { ends.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(ends, (std::vector<SimTime>{10, 20}));
}

/// An op callback that resubmits itself to its core until `left` runs out,
/// recording what it sees at each completion.
struct Resubmit {
  Core* core;
  Simulator* sim;
  std::vector<SimTime>* ends;
  int left;
  void operator()() const {
    EXPECT_FALSE(core->busy());  // the core went idle before the callback
    ends->push_back(sim->now());
    if (left == 0) return;
    core->submit(10, Resubmit{core, sim, ends, left - 1}, OpKind::kLaunch);
    // The idle core started the op at once, built into a new completion
    // event while this one still runs; this callback's captures are intact.
    EXPECT_TRUE(core->busy());
    EXPECT_EQ(core->backlog(), 0u);
    EXPECT_EQ(core->current_kind(), OpKind::kLaunch);
    ends->push_back(-left);
  }
};

TEST(Core, CallbackResubmitsToItsIdleCore) {
  static_assert(Core::fires_in_place<Resubmit>());
  Simulator sim;
  Core core(sim, "c0");
  std::vector<SimTime> ends;
  core.submit(10, Resubmit{&core, &sim, &ends, 2}, OpKind::kLaunch);
  sim.run();
  EXPECT_EQ(ends, (std::vector<SimTime>{10, -2, 20, -1, 30}));
  EXPECT_EQ(sim.events_executed(), 3u);  // one event per op
  EXPECT_FALSE(core.busy());
  EXPECT_EQ(core.busy_time(), 30);
}

TEST(Core, ParkedCallbackCompletesWithOneEvent) {
  // An EventFn callback does not fit its completion event once wrapped: it
  // parks in the in-flight slot, and the op still costs one event.
  static_assert(!Core::fires_in_place<EventFn>());
  Simulator sim;
  Core core(sim, "c0");
  std::vector<SimTime> ends;
  core.submit(10, EventFn([&] {
    ends.push_back(sim.now());
    core.submit(10, EventFn([&] { ends.push_back(sim.now()); }));
  }));
  sim.run();
  EXPECT_EQ(ends, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Core, ResetDestroysAnInPlaceCallbackOnceUnrun) {
  // Counts the destructions of the one live copy of a capture: moved-from
  // husks are disarmed.
  struct Probe {
    explicit Probe(int* d) : destroyed(d) {}
    Probe(Probe&& o) noexcept
        : destroyed(o.destroyed), armed(std::exchange(o.armed, false)) {}
    ~Probe() {
      if (armed) ++*destroyed;
    }
    int* destroyed;
    bool armed = true;
  };
  Simulator sim;
  Core core(sim, "c0");
  int destroyed = 0;
  int ran = 0;
  auto on_done = [p = Probe(&destroyed), &ran] { ++ran; };
  static_assert(Core::fires_in_place<decltype(on_done)>());
  core.submit(100, std::move(on_done), OpKind::kPass);
  sim.run(50);  // mid-flight: the callback lives in its completion event
  EXPECT_EQ(destroyed, 0);
  core.reset();
  EXPECT_EQ(destroyed, 1);
  EXPECT_FALSE(core.busy());
  EXPECT_EQ(core.busy_time(), 50);
  sim.run();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(destroyed, 1);
  EXPECT_TRUE(sim.idle());
}

TEST(Core, TracksBusyTime) {
  Simulator sim;
  Core core(sim, "c0");
  core.submit(100, [] {});
  core.submit(25, [] {});
  sim.run();
  EXPECT_EQ(core.busy_time(), 125);
}

TEST(Core, KindVisibleWhileExecuting) {
  Simulator sim;
  Core core(sim, "c0");
  bool checked = false;
  core.submit(100, [] {}, OpKind::kPcap);
  sim.schedule(50, [&] {
    EXPECT_EQ(core.current_kind(), OpKind::kPcap);
    checked = true;
  });
  sim.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(core.current_kind(), OpKind::kOther);
}

TEST(Core, FifoOrderAcrossDrainAndRefill) {
  Simulator sim;
  Core core(sim, "c0");
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) core.submit(10, [&, i] { order.push_back(i); });
  sim.run();
  EXPECT_FALSE(core.busy());
  EXPECT_EQ(core.backlog(), 0u);
  // Refill the drained queue: the new ops start now and keep their order.
  const SimTime refill = sim.now();
  for (int i = 3; i < 6; ++i) core.submit(10, [&, i] { order.push_back(i); });
  EXPECT_TRUE(core.busy());
  EXPECT_EQ(core.backlog(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.now(), refill + 30);
  EXPECT_EQ(core.busy_time(), 60);
}

TEST(Core, ReentrantSubmitsQueueBehindWaitingOps) {
  Simulator sim;
  Core core(sim, "c0");
  std::vector<int> order;
  core.submit(10, [&] {
    order.push_back(0);
    // Submitted from a completion: behind the ops already waiting. The
    // first submit restarts the idle core on op 1.
    core.submit(10, [&] { order.push_back(3); });
    core.submit(10, [&] { order.push_back(4); });
    EXPECT_TRUE(core.busy());
    EXPECT_EQ(core.backlog(), 3u);
  });
  core.submit(10, [&] { order.push_back(1); });
  core.submit(10, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 50);
}

TEST(Core, NeverDrainingQueueKeepsFifoOrder) {
  // Every completion submits one op, so the backlog never empties and the
  // queue must reuse its storage without reordering anything.
  Simulator sim;
  Core core(sim, "c0");
  constexpr int kOps = 5000;
  std::vector<int> order;
  int submitted = 0;
  std::function<void()> submit_next = [&] {
    const int i = submitted++;
    core.submit(1 + i % 7, [&, i] {
      order.push_back(i);
      if (submitted < kOps) submit_next();
    });
  };
  for (int i = 0; i < 8; ++i) submit_next();
  EXPECT_EQ(core.backlog(), 7u);
  sim.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kOps));
  for (int i = 0; i < kOps; ++i) ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(core.backlog(), 0u);
}

TEST(Core, ResetMidQueueDropsEverything) {
  Simulator sim;
  Core core(sim, "c0");
  int fired = 0;
  for (int i = 0; i < 4; ++i) core.submit(100, [&] { ++fired; });
  sim.run(150);  // the first op completed; the second is mid-flight
  EXPECT_EQ(fired, 1);
  core.reset();
  EXPECT_FALSE(core.busy());
  EXPECT_EQ(core.backlog(), 0u);
  EXPECT_EQ(core.current_kind(), OpKind::kOther);
  EXPECT_EQ(core.busy_time(), 150);  // the aborted remainder is given back
  sim.run();
  EXPECT_EQ(fired, 1);
  // The reset core takes new work normally, starting it at once.
  const SimTime restart = sim.now();
  SimTime restart_end = -1;
  core.submit(10, [&] {
    fired += 10;
    restart_end = sim.now();
  }, OpKind::kLaunch);
  EXPECT_EQ(core.current_kind(), OpKind::kLaunch);
  sim.run();
  EXPECT_EQ(fired, 11);
  EXPECT_EQ(restart_end, restart + 10);
}

}  // namespace
}  // namespace vs::sim
