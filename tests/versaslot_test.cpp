// Tests for the VersaSlot policy — Algorithm 1 (slot allocation: Big-first
// binding, redistribution, rebinding) and Algorithm 2 (online bundling,
// dual-core scheduling, Little-only preemption) in both fabric modes.
#include <gtest/gtest.h>

#include "apps/benchmarks.h"
#include "core/versaslot_policy.h"
#include "fpga/board.h"
#include "runtime/board_runtime.h"
#include "sim/simulator.h"
#include "test_helpers.h"

namespace vs::core {
namespace {

using runtime::BoardRuntime;
using test::make_uniform_app;

struct Fixture {
  sim::Simulator sim;
  fpga::Board board;
  explicit Fixture(fpga::FabricConfig fabric = fpga::FabricConfig::big_little())
      : board(sim, "b0", fabric) {}
};

VersaSlotOptions bl_options() {
  VersaSlotOptions o;
  o.mode = VersaSlotOptions::Mode::kBigLittle;
  return o;
}

VersaSlotOptions ol_options() {
  VersaSlotOptions o;
  o.mode = VersaSlotOptions::Mode::kOnlyLittle;
  return o;
}

TEST(VersaSlot, NamesAndCoreMode) {
  VersaSlotPolicy bl(bl_options());
  VersaSlotPolicy ol(ol_options());
  EXPECT_STREQ(bl.name(), "VersaSlot-BL");
  EXPECT_STREQ(ol.name(), "VersaSlot-OL");
  EXPECT_TRUE(bl.dual_core());
  VersaSlotOptions single = bl_options();
  single.dual_core = false;
  VersaSlotPolicy sc(single);
  EXPECT_FALSE(sc.dual_core());
}

TEST(VersaSlot, BundleableAppBindsToBigSlots) {
  Fixture f;
  VersaSlotPolicy policy(bl_options());
  BoardRuntime rt(f.board, policy);
  auto suite = apps::make_suite(f.board.params());
  int id = rt.submit(suite[1], 1, 10, 0);  // LeNet, 6 tasks -> 2 bundles
  f.sim.run(sim::ms(5));
  EXPECT_EQ(policy.binding(id), VersaSlotPolicy::Binding::kBig);
  EXPECT_EQ(rt.app(id).units.size(), 2u);  // re-unitised into bundles
  EXPECT_EQ(rt.app(id).units[0].spec.slot_kind, fpga::SlotKind::kBig);
  f.sim.run();
  EXPECT_NE(test::completion(rt, id), nullptr);
  EXPECT_EQ(rt.counters().pr_requests, 2);  // two big PRs, no task swaps
}

TEST(VersaSlot, OverflowAppsBindToLittle) {
  Fixture f;
  VersaSlotPolicy policy(bl_options());
  BoardRuntime rt(f.board, policy);
  auto suite = apps::make_suite(f.board.params());
  // Three 6-task apps want 2 big slots each; only 2 big slots exist.
  int a = rt.submit(suite[1], 1, 8, 0);
  int b = rt.submit(suite[2], 2, 8, 0);
  int c = rt.submit(suite[2], 2, 8, 0);
  (void)c;
  f.sim.run(sim::ms(5));
  EXPECT_EQ(policy.binding(a), VersaSlotPolicy::Binding::kBig);
  // b gets no big slots (0 available) -> bound to Little; c too.
  EXPECT_EQ(policy.binding(b), VersaSlotPolicy::Binding::kLittle);
  EXPECT_EQ(rt.app(b).units.size(), 6u);  // still per-task units
  f.sim.run();
  EXPECT_EQ(rt.completed().size(), 3u);
}

TEST(VersaSlot, RebindingPromotesWaitingLittleApp) {
  Fixture f;
  VersaSlotPolicy policy(bl_options());
  BoardRuntime rt(f.board, policy);
  auto suite = apps::make_suite(f.board.params());
  // First app takes both Big slots with a long run.
  int a = rt.submit(suite[3], 3, 30, 0);  // AlexNet, heavy
  f.sim.run(sim::ms(5));
  ASSERT_EQ(policy.binding(a), VersaSlotPolicy::Binding::kBig);
  // Second app must fall back to Little...
  int b = rt.submit(suite[0], 0, 20, f.sim.now());
  (void)b;
  f.sim.run(sim::ms(100));
  // ... but 3DR needs only 1 big slot; before it starts on Little slots a
  // big slot may free. Either way, by completion everything finishes and if
  // it started on Little it must not hold Big slots simultaneously.
  f.sim.run();
  EXPECT_EQ(rt.completed().size(), 2u);
}

TEST(VersaSlot, RebindingDisabledKeepsLittleBinding) {
  Fixture f;
  VersaSlotOptions o = bl_options();
  o.enable_rebinding = false;
  VersaSlotPolicy policy(o);
  BoardRuntime rt(f.board, policy);
  auto suite = apps::make_suite(f.board.params());
  rt.submit(suite[1], 1, 10, 0);
  rt.submit(suite[1], 1, 10, 0);
  rt.submit(suite[1], 1, 10, 0);
  f.sim.run();
  EXPECT_EQ(rt.completed().size(), 3u);
}

TEST(VersaSlot, RedistributionGrantsExtraLittleSlots) {
  // Only.Little mode, single app with 6 tasks: primary allocation gives the
  // ILP-optimal count, redistribution then tops up to all remaining units.
  Fixture f(fpga::FabricConfig::only_little());
  VersaSlotPolicy policy(ol_options());
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 6, sim::ms(50));
  int id = rt.submit(app, 0, 20, 0);
  int max_placed = 0;
  while (f.sim.step()) {
    max_placed = std::max(max_placed, test::units_placed(rt, id));
  }
  // With redistribution the lone app eventually holds more slots than any
  // reasonable primary allocation for a 6-task pipeline.
  EXPECT_EQ(max_placed, 6);
  EXPECT_NE(test::completion(rt, id), nullptr);
}

TEST(VersaSlot, RedistributionDisabledCapsAtOptimal) {
  Fixture f(fpga::FabricConfig::only_little());
  VersaSlotOptions o = ol_options();
  o.enable_redistribution = false;
  VersaSlotPolicy policy(o);
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 6, sim::ms(50));
  int id = rt.submit(app, 0, 20, 0);
  int optimal = apps::optimal_little_slots(app, 20, f.board.params(), 8);
  int max_placed = 0;
  while (f.sim.step()) {
    max_placed = std::max(max_placed, test::units_placed(rt, id));
  }
  EXPECT_LE(max_placed, optimal);
  EXPECT_NE(test::completion(rt, id), nullptr);
}

TEST(VersaSlot, OnlyLittleModeNeverUsesBigSlots) {
  // Run OL policy on a Big.Little fabric: it must ignore the Big slots.
  Fixture f;
  VersaSlotPolicy policy(ol_options());
  BoardRuntime rt(f.board, policy);
  auto suite = apps::make_suite(f.board.params());
  rt.submit(suite[1], 1, 5, 0);
  f.sim.run();
  EXPECT_EQ(rt.completed().size(), 1u);
  for (const fpga::Slot& s : f.board.slots()) {
    if (s.kind() == fpga::SlotKind::kBig) {
      EXPECT_EQ(s.state(), fpga::SlotState::kIdle);
    }
  }
}

TEST(VersaSlot, BigBoundAppNeverTouchesLittleSlots) {
  Fixture f;
  VersaSlotPolicy policy(bl_options());
  BoardRuntime rt(f.board, policy);
  auto suite = apps::make_suite(f.board.params());
  int id = rt.submit(suite[4], 4, 10, 0);  // OF: 3 bundles, 2 big slots
  bool little_used_by_a = false;
  while (f.sim.step()) {
    for (const fpga::Slot& s : f.board.slots()) {
      if (s.kind() == fpga::SlotKind::kLittle && s.occupant_app() == id) {
        little_used_by_a = true;
      }
    }
  }
  EXPECT_FALSE(little_used_by_a);
  EXPECT_NE(test::completion(rt, id), nullptr);
  // 3 bundles through 2 big slots: exactly 3 PRs.
  EXPECT_EQ(rt.counters().pr_requests, 3);
}

TEST(VersaSlot, LittlePreemptionRelievesStarvation) {
  Fixture f(fpga::FabricConfig::only_little());
  VersaSlotOptions o = ol_options();
  o.starvation_threshold = sim::ms(50.0);
  o.preempt_cooldown = sim::ms(10.0);
  VersaSlotPolicy policy(o);
  BoardRuntime rt(f.board, policy);
  apps::AppSpec big = make_uniform_app("big", 8, sim::ms(200));
  rt.submit(big, 0, 30, 0);
  apps::AppSpec small = make_uniform_app("small", 1, sim::ms(1));
  f.sim.schedule(sim::ms(500), [&] { rt.submit(small, 1, 1, sim::ms(500)); });
  f.sim.run(sim::seconds(60.0));
  EXPECT_GT(rt.counters().preemptions, 0);
  bool small_done = false;
  for (const auto& c : rt.completed()) {
    if (c.name == "small") small_done = true;
  }
  EXPECT_TRUE(small_done);
}

TEST(VersaSlot, BundleSizeOptionChangesUnitCount) {
  Fixture f;
  VersaSlotOptions o = bl_options();
  o.bundle_size = 2;
  VersaSlotPolicy policy(o);
  BoardRuntime rt(f.board, policy);
  auto suite = apps::make_suite(f.board.params());
  int id = rt.submit(suite[1], 1, 10, 0);  // 6 tasks -> 3 pairs
  f.sim.run(sim::ms(5));
  if (policy.binding(id) == VersaSlotPolicy::Binding::kBig) {
    EXPECT_EQ(rt.app(id).units.size(), 3u);
  }
  f.sim.run();
  EXPECT_NE(test::completion(rt, id), nullptr);
}

TEST(VersaSlot, ManyAppsAllComplete) {
  Fixture f;
  VersaSlotPolicy policy(bl_options());
  BoardRuntime rt(f.board, policy);
  auto suite = apps::make_suite(f.board.params());
  for (int i = 0; i < 15; ++i) {
    rt.submit(suite[static_cast<std::size_t>(i % 5)], i % 5, 5 + i, 0);
  }
  f.sim.run();
  EXPECT_EQ(rt.completed().size(), 15u);
}

TEST(VersaSlot, SingleCoreAblationStillCompletes) {
  Fixture f;
  VersaSlotOptions o = bl_options();
  o.dual_core = false;
  VersaSlotPolicy policy(o);
  BoardRuntime rt(f.board, policy);
  auto suite = apps::make_suite(f.board.params());
  for (int i = 0; i < 6; ++i) {
    rt.submit(suite[static_cast<std::size_t>(i % 5)], i % 5, 6, 0);
  }
  f.sim.run();
  EXPECT_EQ(rt.completed().size(), 6u);
}

TEST(VersaSlot, DualCoreReducesLaunchBlocking) {
  auto run_one = [](bool dual) {
    sim::Simulator sim;
    fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
    VersaSlotOptions o;
    o.mode = VersaSlotOptions::Mode::kOnlyLittle;
    o.dual_core = dual;
    VersaSlotPolicy policy(o);
    BoardRuntime rt(board, policy);
    auto suite = apps::make_suite(board.params());
    for (int i = 0; i < 8; ++i) {
      rt.submit(suite[static_cast<std::size_t>(i % 5)], i % 5, 8, 0);
    }
    sim.run();
    return rt.counters().launch_blocked;
  };
  EXPECT_EQ(run_one(true), 0);
  EXPECT_GT(run_one(false), 0);
}

}  // namespace
}  // namespace vs::core
