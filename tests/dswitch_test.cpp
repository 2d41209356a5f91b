// Tests for the D_switch metric (Eq. 1) and the switch loop: its sampling
// cadence, sample history, hold rule, gates and Schmitt trigger.
#include <gtest/gtest.h>

#include "core/dswitch.h"

namespace vs::core {
namespace {

TEST(DSwitchValue, MatchesEquationOne) {
  // D = (blocked/PR) * (apps/batch)
  EXPECT_DOUBLE_EQ(dswitch_value(5, 10, 4, 40), 0.5 * 0.1);
  EXPECT_DOUBLE_EQ(dswitch_value(10, 10, 10, 10), 1.0);  // worst case
}

TEST(DSwitchValue, ZeroWhenNoPrsOrNoApps) {
  EXPECT_EQ(dswitch_value(3, 0, 4, 40), 0.0);
  EXPECT_EQ(dswitch_value(3, 10, 0, 0), 0.0);
  EXPECT_EQ(dswitch_value(3, 10, 4, 0), 0.0);
}

TEST(DSwitchValue, ClampedToUnitInterval) {
  EXPECT_LE(dswitch_value(100, 10, 50, 10), 1.0);
  EXPECT_GE(dswitch_value(0, 10, 4, 40), 0.0);
}

TEST(DSwitchValue, MonotoneInBlocked) {
  EXPECT_LT(dswitch_value(1, 10, 4, 40), dswitch_value(5, 10, 4, 40));
}

TEST(DSwitchValue, WorstCaseWhenBatchEqualsApps) {
  // "If each application is allocated only one slot with batch size to be
  // one, N_batch = N_apps ... corresponds to the maximum value."
  double batch_one = dswitch_value(8, 10, 20, 20);
  double batch_many = dswitch_value(8, 10, 20, 400);
  EXPECT_GT(batch_one, batch_many);
}

/// A sample of four queued apps (both queue gates pass) whose D_switch is
/// `blocked` per mille: (blocked / 1000) * (4 / 4).
DSwitchSample at(std::int64_t blocked, int apps = SwitchLoop::kMinQueue) {
  DSwitchSample s;
  s.blocked = blocked;
  s.prs = 1000;
  s.apps = apps;
  s.batch = apps;
  return s;
}

/// A loop past its warm-up: kWarmupSamples quiet samples fed.
SwitchLoop warm(double t1, double t2, bool enabled = true) {
  SwitchLoop loop(t1, t2, enabled);
  for (int i = 0; i < SwitchLoop::kWarmupSamples; ++i) {
    EXPECT_EQ(loop.feed(at(0)), SwitchLoop::Action::kNone);
  }
  return loop;
}

TEST(SwitchLoop, SamplesEveryPeriodQueueUpdates) {
  SwitchLoop loop(0.5, 0.2);
  int due = 0;
  for (int i = 1; i <= 3 * SwitchLoop::kPeriod; ++i) {
    const bool fired = loop.on_queue_update();
    EXPECT_EQ(fired, i % SwitchLoop::kPeriod == 0) << "update " << i;
    due += fired ? 1 : 0;
  }
  EXPECT_EQ(due, 3);
}

TEST(SwitchLoop, RecordsEverySampleWithItsValue) {
  SwitchLoop loop(0.5, 0.2);
  EXPECT_EQ(loop.last(), 0.0);
  DSwitchSample first = at(250);
  first.time = 100;
  (void)loop.feed(first);
  (void)loop.feed(at(500));
  ASSERT_EQ(loop.trace().size(), 2u);
  EXPECT_EQ(loop.trace()[0].time, 100);
  EXPECT_EQ(loop.trace()[0].blocked, 250);
  EXPECT_DOUBLE_EQ(loop.trace()[0].value, dswitch_value(250, 1000, 4, 4));
  EXPECT_DOUBLE_EQ(loop.last(), 0.5);
}

TEST(SwitchLoop, WindowWithoutPrsHoldsTheLastValue) {
  SwitchLoop loop(0.5, 0.2);
  (void)loop.feed(at(300));
  DSwitchSample idle = at(0);
  idle.prs = 0;  // slots mid-batch: no PR this window, apps still queued
  (void)loop.feed(idle);
  EXPECT_DOUBLE_EQ(loop.last(), 0.3);
  idle.apps = 0;  // nothing queued: a real zero
  idle.batch = 0;
  (void)loop.feed(idle);
  EXPECT_EQ(loop.last(), 0.0);
}

TEST(SwitchLoop, WarmupGateHoldsTheFirstSamples) {
  SwitchLoop loop(0.5, 0.2);
  for (int i = 0; i < SwitchLoop::kWarmupSamples; ++i) {
    EXPECT_EQ(loop.feed(at(900)), SwitchLoop::Action::kNone) << "sample " << i;
  }
  EXPECT_EQ(loop.feed(at(900)), SwitchLoop::Action::kSwitchToBigLittle);
}

TEST(SwitchLoop, QueueGateNeedsABacklogUpAndItsEndDown) {
  SwitchLoop loop = warm(0.5, 0.2);
  // Going up needs kMinQueue queued apps.
  EXPECT_EQ(loop.feed(at(900, SwitchLoop::kMinQueue - 1)),
            SwitchLoop::Action::kNone);
  EXPECT_EQ(loop.config(), SwitchLoop::Config::kOnlyLittle);
  EXPECT_EQ(loop.feed(at(900)), SwitchLoop::Action::kSwitchToBigLittle);
  // Coming down waits while more than kMinQueue apps are queued.
  EXPECT_EQ(loop.feed(at(100, SwitchLoop::kMinQueue + 1)),
            SwitchLoop::Action::kNone);
  EXPECT_EQ(loop.config(), SwitchLoop::Config::kBigLittle);
  EXPECT_EQ(loop.feed(at(100)), SwitchLoop::Action::kSwitchToOnlyLittle);
}

TEST(SwitchLoop, TriggersUpAtT1) {
  SwitchLoop loop = warm(0.5, 0.2);
  EXPECT_EQ(loop.config(), SwitchLoop::Config::kOnlyLittle);
  EXPECT_EQ(loop.feed(at(100)), SwitchLoop::Action::kNone);
  EXPECT_EQ(loop.feed(at(300)), SwitchLoop::Action::kPrewarmBigLittle);
  EXPECT_EQ(loop.feed(at(500)), SwitchLoop::Action::kSwitchToBigLittle);
  EXPECT_EQ(loop.config(), SwitchLoop::Config::kBigLittle);
}

TEST(SwitchLoop, TriggersDownAtT2) {
  SwitchLoop loop = warm(0.5, 0.2);
  loop.force(SwitchLoop::Config::kBigLittle);
  EXPECT_EQ(loop.feed(at(600)), SwitchLoop::Action::kNone);
  EXPECT_EQ(loop.feed(at(300)), SwitchLoop::Action::kPrewarmOnlyLittle);
  EXPECT_EQ(loop.feed(at(200)), SwitchLoop::Action::kSwitchToOnlyLittle);
  EXPECT_EQ(loop.config(), SwitchLoop::Config::kOnlyLittle);
}

TEST(SwitchLoop, HysteresisPreventsThrashing) {
  // Oscillating inside the buffer zone must never switch.
  SwitchLoop loop = warm(0.5, 0.2);
  for (int i = 0; i < 20; ++i) {
    auto a = loop.feed(at(i % 2 ? 450 : 250));
    EXPECT_NE(a, SwitchLoop::Action::kSwitchToBigLittle);
    EXPECT_NE(a, SwitchLoop::Action::kSwitchToOnlyLittle);
  }
  EXPECT_EQ(loop.config(), SwitchLoop::Config::kOnlyLittle);
}

TEST(SwitchLoop, FullCycle) {
  SwitchLoop loop = warm(0.5, 0.2);
  EXPECT_EQ(loop.feed(at(700)), SwitchLoop::Action::kSwitchToBigLittle);
  EXPECT_EQ(loop.feed(at(700)), SwitchLoop::Action::kNone);  // already there
  EXPECT_EQ(loop.feed(at(100)), SwitchLoop::Action::kSwitchToOnlyLittle);
  EXPECT_EQ(loop.feed(at(100)), SwitchLoop::Action::kNone);
}

TEST(SwitchLoop, ForceSetsTheConfigurationWithoutASample) {
  SwitchLoop loop = warm(0.5, 0.2);
  loop.force(SwitchLoop::Config::kBigLittle);
  EXPECT_EQ(loop.config(), SwitchLoop::Config::kBigLittle);
  EXPECT_EQ(loop.trace().size(),
            static_cast<std::size_t>(SwitchLoop::kWarmupSamples));
  // A reverted switch retriggers on the next sample past T1.
  loop.force(SwitchLoop::Config::kOnlyLittle);
  EXPECT_EQ(loop.feed(at(900)), SwitchLoop::Action::kSwitchToBigLittle);
}

TEST(SwitchLoop, DisabledRecordsEverySampleAndNeverActs) {
  SwitchLoop loop = warm(0.5, 0.2, /*enabled=*/false);
  for (std::int64_t blocked : {900, 300, 100, 900}) {
    EXPECT_EQ(loop.feed(at(blocked)), SwitchLoop::Action::kNone);
  }
  EXPECT_EQ(loop.trace().size(),
            static_cast<std::size_t>(SwitchLoop::kWarmupSamples + 4));
  EXPECT_DOUBLE_EQ(loop.last(), 0.9);
  EXPECT_EQ(loop.config(), SwitchLoop::Config::kOnlyLittle);
}

TEST(SwitchLoop, ThresholdAccessors) {
  SwitchLoop loop(0.4, 0.1);
  EXPECT_DOUBLE_EQ(loop.t1(), 0.4);
  EXPECT_DOUBLE_EQ(loop.t2(), 0.1);
}

}  // namespace
}  // namespace vs::core
