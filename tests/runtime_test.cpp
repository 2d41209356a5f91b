// Tests for the BoardRuntime execution engine: admission, PR flow, slot
// lifecycle, item-wise pipeline dependencies, single- vs dual-core PR
// blocking, preemption, full-fabric reconfiguration, utilisation
// accounting, migration extraction, and the per-item event path.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fpga/board.h"
#include "obs/trace_hub.h"
#include "runtime/board_runtime.h"
#include "sim/simulator.h"
#include "test_helpers.h"

namespace vs::runtime {
namespace {

using test::GreedyPolicy;
using test::ScriptedPolicy;
using test::make_uniform_app;

struct Fixture {
  sim::Simulator sim;
  fpga::Board board;
  Fixture(fpga::FabricConfig fabric = fpga::FabricConfig::only_little())
      : board(sim, "b0", fabric) {}
};

TEST(BoardRuntime, SubmitCreatesLittleUnitsByDefault) {
  Fixture f;
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 4, sim::ms(1));
  int id = rt.submit(app, 0, 7, 0);
  EXPECT_EQ(id, 0);
  const AppRun& run = rt.app(id);
  EXPECT_EQ(run.units.size(), 4u);
  EXPECT_EQ(run.batch, 7);
  EXPECT_FALSE(run.started);
  EXPECT_TRUE(rt.live(id));
  EXPECT_EQ(run.units_unfinished(), 4);
  EXPECT_EQ(run.units_placed(), 0);
}

TEST(BoardRuntime, SetUnitsRebundles) {
  Fixture f;
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 6, sim::ms(1));
  int id = rt.submit(app, 0, 5, 0);
  std::vector<apps::UnitSpec> bundles;
  apps::make_big_units(bundles, app, 5, f.board.params());
  rt.set_units(id, bundles);
  EXPECT_EQ(rt.app(id).units.size(), 2u);
  EXPECT_EQ(rt.app(id).units[0].spec.slot_kind, fpga::SlotKind::kBig);
}

TEST(BoardRuntime, RequestPrDrivesSlotLifecycle) {
  Fixture f;
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(2));
  int id = rt.submit(app, 0, 1, 0);
  rt.request_pr(id, 0, 0);
  EXPECT_EQ(f.board.slot(0).state(), fpga::SlotState::kReconfiguring);
  EXPECT_EQ(rt.app(id).units[0].state, UnitState::kReconfiguring);
  EXPECT_TRUE(rt.app(id).started);
  EXPECT_EQ(rt.counters().pr_requests, 1);
  f.sim.run();
  // The single unit ran its single item and completed the app.
  EXPECT_NE(test::completion(rt, id), nullptr);
  EXPECT_FALSE(rt.live(id));
  EXPECT_EQ(f.board.slot(0).state(), fpga::SlotState::kIdle);
  EXPECT_EQ(rt.counters().items_executed, 1);
  EXPECT_EQ(rt.counters().apps_completed, 1);
}

TEST(BoardRuntime, PipelineRespectsItemDependencies) {
  Fixture f;
  GreedyPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(10));
  int id = rt.submit(app, 0, 3, 0);
  f.sim.run();
  const CompletedApp* run = test::completion(rt, id);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(rt.counters().items_executed, 6);  // both units ran all 3 items
  // Downstream cannot finish before upstream produced its items: the app
  // completes no earlier than PR + 4 pipeline steps of 10 ms.
  sim::SimDuration pr =
      f.board.params().pcap_load_time(f.board.params().little_bitstream_bytes);
  EXPECT_GE(run->completed, pr + sim::ms(40));
}

TEST(BoardRuntime, ItemReadySemantics) {
  Fixture f;
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(1));
  int id = rt.submit(app, 0, 2, 0);
  const AppRun& run = rt.app(id);
  EXPECT_TRUE(rt.item_ready(run, 0));   // first unit always ready
  EXPECT_FALSE(rt.item_ready(run, 1));  // upstream produced nothing yet
}

TEST(BoardRuntime, DualCoreKeepsSchedulerFree) {
  // With a dual-core policy the PR occupies core 1; the scheduler core must
  // stay available during the load.
  Fixture f;
  ScriptedPolicy policy(nullptr, /*dual=*/true);
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(1));
  int id = rt.submit(app, 0, 1, 0);
  f.sim.run(sim::ms(1));  // let the submit pass execute
  // Pre-stage the bitstream so the PCAP load starts immediately.
  f.board.sdcard().prewarm(unit_bitstream_key(0, rt.app(id).units[0].spec, 0));
  rt.request_pr(id, 0, 0);
  bool checked = false;
  f.sim.schedule(sim::ms(20), [&] {
    EXPECT_TRUE(f.board.pr_core().busy());
    EXPECT_FALSE(f.board.scheduler_core().busy());
    checked = true;
  });
  f.sim.run();
  EXPECT_TRUE(checked);
}

TEST(BoardRuntime, SingleCorePrSuspendsScheduler) {
  Fixture f;
  ScriptedPolicy policy(nullptr, /*dual=*/false);
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(1));
  int id = rt.submit(app, 0, 1, 0);
  f.sim.run(sim::ms(1));
  f.board.sdcard().prewarm(unit_bitstream_key(0, rt.app(id).units[0].spec, 0));
  rt.request_pr(id, 0, 0);
  bool checked = false;
  f.sim.schedule(sim::ms(20), [&] {
    EXPECT_TRUE(f.board.scheduler_core().busy());
    EXPECT_EQ(f.board.scheduler_core().current_kind(), sim::OpKind::kPcap);
    checked = true;
  });
  f.sim.run();
  EXPECT_TRUE(checked);
}

TEST(BoardRuntime, BlockedAccountingCountsPcapQueueing) {
  Fixture f;
  ScriptedPolicy policy(nullptr, /*dual=*/true);
  BoardRuntime rt(f.board, policy);
  LoadCell cell;
  rt.bind_load_cell(&cell);
  apps::AppSpec app = make_uniform_app("a", 3, sim::ms(1));
  int id = rt.submit(app, 0, 1, 0);
  f.sim.run(sim::ms(1));
  for (int unit = 0; unit < 3; ++unit) {
    f.board.sdcard().prewarm(
        unit_bitstream_key(0, rt.app(id).units[static_cast<std::size_t>(unit)].spec,
                           unit));
  }
  rt.request_pr(id, 0, 0);
  rt.request_pr(id, 1, 1);
  rt.request_pr(id, 2, 2);
  EXPECT_EQ(rt.counters().pr_blocked, 2);
  EXPECT_EQ(cell.blocked, 2);
  // The cluster takes the D_switch window by zeroing the cell's fields.
  cell.blocked = cell.prs = 0;
  EXPECT_EQ(rt.load_state().blocked, 0);
  EXPECT_EQ(rt.counters().pr_blocked, 2);  // cumulative survives reset
  f.sim.run();
  EXPECT_NE(test::completion(rt, id), nullptr);
}

TEST(BoardRuntime, PreemptionPreservesProgress) {
  Fixture f;
  GreedyPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(10));
  int id = rt.submit(app, 0, 5, 0);
  // Run until a few items are done, then preempt at an item boundary.
  while (rt.app(id).units[0].items_done < 2 && f.sim.step()) {
  }
  AppRun& run = rt.app(id);
  ASSERT_GE(run.units[0].items_done, 2);
  // Wait until not mid-item.
  while (run.units[0].item_in_flight && f.sim.step()) {
  }
  if (run.units[0].state == UnitState::kRunning) {
    int done_before = run.units[0].items_done;
    rt.preempt_unit(id, 0);
    EXPECT_EQ(run.units[0].state, UnitState::kPending);
    EXPECT_EQ(run.units[0].items_done, done_before);
    EXPECT_EQ(rt.counters().preemptions, 1);
  }
  f.sim.run();
  EXPECT_NE(test::completion(rt, id), nullptr);  // greedy policy re-places it
  EXPECT_EQ(rt.counters().items_executed, 5);
}

TEST(BoardRuntime, FullReconfigRunsWholeAppWithoutSlots) {
  Fixture f;
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 3, sim::ms(5));
  int id = rt.submit(app, 0, 4, 0);
  rt.request_full_reconfig(id);
  f.sim.run();
  const CompletedApp* run = test::completion(rt, id);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(rt.counters().pr_requests, 1);  // one monolithic load
  // All slots stayed untouched.
  for (const fpga::Slot& s : f.board.slots()) {
    EXPECT_EQ(s.state(), fpga::SlotState::kIdle);
  }
  // Completion not before full load + restart + pipeline.
  const fpga::BoardParams& p = f.board.params();
  EXPECT_GT(run->completed, p.pcap_load_time(p.full_bitstream_bytes) +
                                p.full_reconfig_restart);
}

TEST(BoardRuntime, ExtractUnstartedRemovesOnlyUnstarted) {
  Fixture f;
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(1));
  int started_id = rt.submit(app, 0, 3, 0);
  int waiting_id = rt.submit(app, 0, 5, sim::ms(1));
  rt.request_pr(started_id, 0, 0);
  rt.request_pr(started_id, 1, 1);
  auto migrated = rt.extract_unstarted();
  ASSERT_EQ(migrated.size(), 1u);
  EXPECT_EQ(migrated[0].batch, 5);
  EXPECT_EQ(migrated[0].spec_index, 0);
  EXPECT_GT(migrated[0].state_bytes, 4096);
  EXPECT_FALSE(rt.live(waiting_id));  // its slot is free
  EXPECT_EQ(rt.active_apps(), 1);
  f.sim.run();
  EXPECT_NE(test::completion(rt, started_id), nullptr);
  EXPECT_TRUE(rt.drained());
}

TEST(BoardRuntime, StopAdmissionFlag) {
  Fixture f;
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  EXPECT_TRUE(rt.admission_open());
  rt.stop_admission();
  EXPECT_FALSE(rt.admission_open());
}

TEST(BoardRuntime, CompletedAppsRecordResponseTimes) {
  Fixture f;
  GreedyPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(5));
  // Arrival time 100 ms before admission: queueing time counts.
  f.sim.schedule(sim::ms(100), [&] { rt.submit(app, 0, 2, 0); });
  f.sim.run();
  ASSERT_EQ(rt.completed().size(), 1u);
  const CompletedApp& c = rt.completed()[0];
  EXPECT_EQ(c.arrival, 0);
  EXPECT_GT(c.response_ms(), 100.0);
  EXPECT_EQ(c.spec_index, 0);
}

TEST(BoardRuntime, OnAppCompleteHookFires) {
  Fixture f;
  GreedyPolicy policy;
  BoardRuntime rt(f.board, policy);
  int fired = 0;
  rt.set_on_app_complete([&](const CompletedApp&) { ++fired; });
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(1));
  rt.submit(app, 0, 1, 0);
  rt.submit(app, 0, 1, 0);
  f.sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(BoardRuntime, UtilizationIntegralsArePlausible) {
  Fixture f;
  GreedyPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(10));
  rt.submit(app, 0, 10, 0);
  f.sim.run();
  const UtilizationIntegral& u = rt.utilization();
  EXPECT_GT(u.lut_used, 0.0);
  EXPECT_GT(u.lut_capacity, 0.0);
  EXPECT_GE(u.lut_capacity, u.lut_used);  // usage never exceeds capacity
  EXPECT_GE(u.lut_fabric, u.lut_capacity);
  double occ = u.lut_of_occupied();
  EXPECT_GT(occ, 0.0);
  EXPECT_LE(occ, 1.0);
}

TEST(BoardRuntime, ParallelBundleFillChargedOnFirstItemOnly) {
  Fixture f(fpga::FabricConfig::big_little());
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 3, sim::ms(10));
  int id = rt.submit(app, 0, 4, 0);
  std::vector<apps::UnitSpec> units;
  apps::make_big_units(units, app, 4, f.board.params());
  ASSERT_EQ(units.size(), 1u);
  ASSERT_EQ(units[0].mode, apps::BundleMode::kParallel);
  rt.set_units(id, units);
  rt.request_pr(id, 0, 0);  // slot 0 is Big
  f.sim.run();
  const CompletedApp* run = test::completion(rt, id);
  ASSERT_NE(run, nullptr);
  // Execution time = fill (2*10) + 4 items * 10 = 60 ms plus the PR path
  // (SD fetch + PCAP load) and small DMA/core overheads; it must exceed
  // 60 ms but stay well under the serial-execution 120 ms alternative.
  const fpga::BoardParams& p = f.board.params();
  sim::SimDuration pr_path = p.sd_read_time(units[0].bitstream_bytes) +
                             p.pcap_load_time(units[0].bitstream_bytes);
  EXPECT_GT(run->completed, sim::ms(60));
  EXPECT_LT(run->completed, sim::ms(120) + pr_path);
}

TEST(BoardRuntime, LaunchBlockedCounterSingleCore) {
  // Single-core: a kick issued while the core is suspended by a PR counts
  // as a blocked launch (the Fig 2 task-execution-blocking event).
  Fixture f;
  ScriptedPolicy policy(nullptr, /*dual=*/false);
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(1));
  int id = rt.submit(app, 0, 1, 0);
  f.sim.run(sim::ms(1));
  f.board.sdcard().prewarm(unit_bitstream_key(0, rt.app(id).units[0].spec, 0));
  rt.request_pr(id, 0, 0);
  std::int64_t before = rt.counters().launch_blocked;
  f.sim.schedule(sim::ms(5), [&] { rt.kick(); });
  f.sim.run(sim::ms(10));
  EXPECT_GT(rt.counters().launch_blocked, before);
}

TEST(BoardRuntime, SdCacheMakesSecondPrFaster) {
  Fixture f;
  GreedyPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(1));
  rt.submit(app, 0, 1, 0);
  f.sim.run();
  sim::SimTime first_done = rt.completed()[0].completed;
  rt.submit(app, 0, 1, f.sim.now());
  sim::SimTime second_start = f.sim.now();
  f.sim.run();
  sim::SimTime second_done = rt.completed()[1].completed - second_start;
  EXPECT_LT(second_done, first_done);  // bitstream already in DDR
  EXPECT_EQ(f.board.sdcard().misses(), 1);
}

// ---- Item path: launch op, then input DMA + execution, then pass ----------

/// Steps until the scheduler core starts a launch op; returns that op's
/// end, the instant the item's input DMA is kicked.
sim::SimTime step_to_launch(Fixture& f) {
  while (f.board.scheduler_core().current_kind() != sim::OpKind::kLaunch) {
    if (!f.sim.step()) {
      ADD_FAILURE() << "drained before a launch op";
      return -1;
    }
  }
  return f.sim.now() + f.board.params().launch_op_cost;
}

TEST(ItemPath, ThreeKernelEventsPerItem) {
  // A lone single-unit app on an otherwise idle board. Between two item
  // completions the kernel fires exactly the launch op's end, the
  // execution end and the pass that launches the next item: the input DMA
  // has no event of its own.
  Fixture f;
  GreedyPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(1));
  const int id = rt.submit(app, 0, /*batch=*/6, 0);
  std::vector<std::uint64_t> events_at_item;
  while (f.sim.step()) {
    if (rt.counters().items_executed >
        static_cast<std::int64_t>(events_at_item.size())) {
      events_at_item.push_back(f.sim.events_executed());
    }
  }
  ASSERT_NE(test::completion(rt, id), nullptr);
  ASSERT_EQ(events_at_item.size(), 6u);
  for (std::size_t i = 1; i < events_at_item.size(); ++i) {
    EXPECT_EQ(events_at_item[i] - events_at_item[i - 1], 3u) << "item " << i;
  }
}

TEST(ItemPath, ExecSpanStartsAfterLaunchOpAndDmaIn) {
  // The slot executes from the DMA kick, while the exec span and the item
  // latency histogram start once the input has landed.
  Fixture f;
  GreedyPolicy policy;
  BoardRuntime rt(f.board, policy);
  obs::ClusterTraceHub hub;
  hub.enable_trace();
  obs::TraceChannel& spans = hub.channel(f.board.name());
  rt.bind_observability(spans);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(1));
  (void)rt.submit(app, 0, /*batch=*/1, 0);
  const sim::SimTime kick = step_to_launch(f);
  const sim::SimTime started =
      kick + f.board.params().dma_time(app.tasks[0].item_bytes_in);
  fpga::SlotState in_dma_window = fpga::SlotState::kIdle;
  f.sim.schedule_at((kick + started) / 2,
                    [&] { in_dma_window = f.board.slot(0).state(); });
  f.sim.run();
  EXPECT_EQ(in_dma_window, fpga::SlotState::kExecuting);
  std::vector<obs::TraceChannel::Span> exec;
  for (const obs::TraceChannel::Span& s : spans.spans()) {
    if (s.kind == obs::SpanKind::kExec) exec.push_back(s);
  }
  ASSERT_EQ(exec.size(), 1u);
  EXPECT_EQ(exec[0].start, started);
  EXPECT_EQ(exec[0].end, started + app.tasks[0].item_latency);
  ASSERT_EQ(rt.completed().size(), 1u);
  EXPECT_EQ(rt.completed()[0].completed, exec[0].end);
}

TEST(ItemPath, SeuInDmaWindowDiscardsTheItem) {
  // An SEU after the launch op, before the input lands, poisons the item
  // in flight: its execution end discards it uncounted and evicts the
  // unit, which retries from Pending with its earlier items intact.
  Fixture f;
  GreedyPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(1));
  const int id = rt.submit(app, 0, /*batch=*/3, 0);
  const UnitRun& unit = rt.app(id).units[0];
  while (unit.items_done < 1 && f.sim.step()) {
  }
  const sim::SimTime kick = step_to_launch(f);
  const sim::SimDuration dma =
      f.board.params().dma_time(app.tasks[0].item_bytes_in);
  const int slot = unit.slot;
  ASSERT_GE(slot, 0);
  f.sim.schedule_at(kick + dma / 2, [&] { rt.inject_slot_seu(slot); });
  while (unit.state != UnitState::kPending && f.sim.step()) {
  }
  EXPECT_EQ(f.sim.now(), kick + dma + app.tasks[0].item_latency);
  EXPECT_EQ(unit.items_done, 1);
  EXPECT_EQ(rt.counters().items_executed, 1);
  EXPECT_EQ(f.board.slot(slot).state(), fpga::SlotState::kIdle);
  f.sim.run();
  EXPECT_NE(test::completion(rt, id), nullptr);
  EXPECT_EQ(rt.counters().items_executed, 3);
}

TEST(ItemPath, CrashInDmaWindowCompletesNothing) {
  // A crash after the launch op, before the input lands: the item dies
  // with the fabric, the app evacuates with only its finished item, and
  // the stale execution end completes nothing.
  Fixture f;
  GreedyPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(1));
  const int id = rt.submit(app, 0, /*batch=*/3, 0);
  while (rt.app(id).units[0].items_done < 1 && f.sim.step()) {
  }
  const sim::SimTime kick = step_to_launch(f);
  const sim::SimDuration dma =
      f.board.params().dma_time(app.tasks[0].item_bytes_in);
  BoardRuntime::CrashReport report;
  f.sim.schedule_at(kick + dma / 2, [&] { report = rt.crash(); });
  f.sim.run();
  ASSERT_TRUE(rt.crashed());
  ASSERT_EQ(report.evacuable.size(), 1u);
  EXPECT_EQ(report.evacuable[0].progress, std::vector<int>{1});
  EXPECT_TRUE(report.killed.empty());
  EXPECT_EQ(rt.counters().items_executed, 1);
  EXPECT_TRUE(rt.completed().empty());
  for (const fpga::Slot& s : f.board.slots()) {
    EXPECT_EQ(s.state(), fpga::SlotState::kIdle) << s.name();
  }
}

}  // namespace
}  // namespace vs::runtime
