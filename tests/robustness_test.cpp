// Robustness and auditing tests: runtime invariants under every policy,
// PCAP fault injection (DFX verification failures with retry), and the DML
// extension policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/benchmarks.h"
#include "baselines/dml.h"
#include "faults/scenario.h"
#include "fpga/board.h"
#include "metrics/experiment.h"
#include "runtime/board_runtime.h"
#include "runtime/invariants.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "workload/generator.h"

namespace vs {
namespace {

/// Submits each arrival of `seq` to `rt` at its arrival time.
void schedule_sequence(sim::Simulator& sim, runtime::BoardRuntime& rt,
                       const std::vector<apps::AppSpec>& suite,
                       const workload::Sequence& seq) {
  for (const auto& a : seq) {
    sim.schedule_at(a.arrival, [&rt, &suite, a] {
      rt.submit(suite[static_cast<std::size_t>(a.spec_index)], a.spec_index,
                a.batch, a.arrival);
    });
  }
}

/// gtest-safe parameter name for a system ("VersaSlot-BL" -> VersaSlot_BL).
std::string system_param_name(
    const ::testing::TestParamInfo<metrics::SystemKind>& info) {
  std::string n = metrics::system_name(info.param);
  for (char& c : n) {
    if (c == '-' || c == '.') c = '_';
  }
  return n;
}

// ----------------------------------------------------------- invariants

TEST(Invariants, HoldOnFreshRuntime) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::GreedyPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  EXPECT_TRUE(runtime::audit(rt).ok());
}

TEST(Invariants, HoldThroughoutAnExecution) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::GreedyPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  auto app = test::make_uniform_app("a", 4, sim::ms(3));
  rt.submit(app, 0, 5, 0);
  rt.submit(app, 0, 3, 0);
  int checked = 0;
  while (sim.step()) {
    if (++checked % 7 == 0) {
      auto report = runtime::audit(rt);
      ASSERT_TRUE(report.ok()) << report.to_string();
    }
  }
  EXPECT_TRUE(runtime::audit(rt).ok());
  EXPECT_EQ(rt.completed().size(), 2u);
}

class InvariantSweep
    : public ::testing::TestWithParam<metrics::SystemKind> {};

TEST_P(InvariantSweep, HoldAtCompletionForEverySystem) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 12;
  util::Rng rng(17);
  auto seq = workload::generate_sequence(config, rng);

  sim::Simulator sim;
  fpga::Board board(sim, "b0", metrics::fabric_for(GetParam()), params);
  auto policy = metrics::make_policy(GetParam());
  runtime::BoardRuntime rt(board, *policy);
  schedule_sequence(sim, rt, suite, seq);
  // Audit at periodic checkpoints and at the end.
  for (int i = 1; i <= 10; ++i) {
    sim.run(sim::seconds(3.0 * i));
    auto report = runtime::audit(rt);
    ASSERT_TRUE(report.ok()) << report.to_string();
  }
  sim.run();
  auto report = runtime::audit(rt);
  ASSERT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(rt.completed().size(), seq.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, InvariantSweep,
    ::testing::Values(metrics::SystemKind::kBaseline,
                      metrics::SystemKind::kFcfs,
                      metrics::SystemKind::kRoundRobin,
                      metrics::SystemKind::kNimblock,
                      metrics::SystemKind::kVersaOnlyLittle,
                      metrics::SystemKind::kVersaBigLittle,
                      metrics::SystemKind::kDml),
    system_param_name);

TEST(Invariants, LiveIndexTracksEveryExit) {
  // The live index must drop an app at each of its four exits — completion
  // (also inside submit, for an app that arrives finished), extraction of
  // unstarted apps, extraction of paused apps, and a crash — and keep the
  // survivors in ascending id order. audit() (I9) cross-checks the index
  // against the app states after every step.
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::GreedyPolicy greedy;
  bool place = true;
  test::ScriptedPolicy policy([&](runtime::BoardRuntime& rt) {
    if (place) greedy.on_pass(rt);
  });
  runtime::BoardRuntime rt(board, policy);
  auto app = test::make_uniform_app("a", 2, sim::ms(1));
  auto expect_live = [&rt](const std::vector<int>& ids) {
    auto report = runtime::audit(rt);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_EQ(rt.live_ids(), ids);
    EXPECT_EQ(rt.active_apps(), static_cast<int>(ids.size()));
  };

  // Normal completion.
  int done = rt.submit(app, 0, 2, 0);
  expect_live({done});
  sim.run();
  ASSERT_NE(test::completion(rt, done), nullptr);
  expect_live({});

  // An all-done progress vector completes inside submit_migrated.
  int arrived_done = rt.submit_migrated(
      app, test::resumed_app(0, 2, sim.now(), {2, 2}),
      runtime::AppPhase::kMigration);
  ASSERT_NE(test::completion(rt, arrived_done), nullptr);
  expect_live({});

  // From here on nothing is placed by the policy.
  place = false;
  int unstarted_a = rt.submit(app, 0, 2, sim.now());
  int paused = rt.submit_migrated(
      app, test::resumed_app(0, 2, sim.now(), {1, 0}),
      runtime::AppPhase::kMigration);
  int placed = rt.submit(app, 0, 2, sim.now());
  std::vector<int> idle;
  rt.idle_slots(fpga::SlotKind::kLittle, idle);
  rt.request_pr(placed, 0, idle.front());
  int unstarted_b = rt.submit(app, 0, 2, sim.now());
  expect_live({unstarted_a, paused, placed, unstarted_b});

  EXPECT_EQ(rt.extract_unstarted().size(), 2u);
  expect_live({paused, placed});

  EXPECT_EQ(rt.extract_migratable().size(), 1u);  // the paused app
  expect_live({placed});

  int late = rt.submit(app, 0, 2, sim.now());
  expect_live({placed, late});
  auto report = rt.crash();
  EXPECT_EQ(report.evacuable.size() + report.checkpointed.size() +
                report.killed.size(),
            2u);
  expect_live({});
}

// Per-pass and per-event work walks the live index, and app state lives in
// recycled slots, so both must be bounded by the board's load, not by how
// many apps the board has ever admitted: a 2000-app Standard run keeps as
// few apps live, and holds as few app slots, as a short one.
class RunLength : public ::testing::TestWithParam<metrics::SystemKind> {};

TEST_P(RunLength, LiveIndexBoundedByLoadNotHistory) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStandard;
  config.apps_per_sequence = 2000;
  util::Rng rng(2025);
  auto seq = workload::generate_sequence(config, rng);

  sim::Simulator sim;
  fpga::Board board(sim, "b0", metrics::fabric_for(GetParam()), params);
  auto policy = metrics::make_policy(GetParam());
  runtime::BoardRuntime rt(board, *policy);
  schedule_sequence(sim, rt, suite, seq);
  std::size_t peak_live = 0;
  std::int64_t steps = 0;
  while (sim.step()) {
    peak_live = std::max(peak_live, rt.live_ids().size());
    if (++steps % 10000 == 0) {
      auto report = runtime::audit(rt);
      ASSERT_TRUE(report.ok()) << "step " << steps << ": "
                               << report.to_string();
    }
  }
  auto report = runtime::audit(rt);
  ASSERT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(rt.admitted(), 2000);
  EXPECT_EQ(rt.completed().size(), 2000u);
  EXPECT_LE(peak_live, 8u);
  // Departed apps' slots are reused: the board holds no more app state
  // than the most apps it ever held live at once.
  EXPECT_LE(rt.app_slots(), peak_live);
}

INSTANTIATE_TEST_SUITE_P(
    SharingSystems, RunLength,
    ::testing::Values(metrics::SystemKind::kVersaOnlyLittle,
                      metrics::SystemKind::kVersaBigLittle,
                      metrics::SystemKind::kNimblock),
    system_param_name);

TEST(Invariants, DetectInconsistentState) {
  // Manually corrupt a runtime into an inconsistent state and verify the
  // audit reports it: a slot left reconfiguring with no unit claiming it.
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::ScriptedPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  auto app = test::make_uniform_app("a", 1, sim::ms(1));
  rt.submit(app, 0, 1, 0);
  board.slot(3).begin_reconfig(/*app=*/0);  // no unit owns this
  auto report = runtime::audit(rt);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("slot L3"), std::string::npos);
  // I10: the runtime's occupied sum never saw that slot change.
  EXPECT_NE(report.to_string().find("occupied sum"), std::string::npos);

  // I5: a unit state written directly, past the runtime's transitions,
  // leaves the app's per-state counts stale.
  auto second = test::make_uniform_app("b", 2, sim::ms(1));
  const int b = rt.submit(second, 1, 1, 0);
  rt.app(b).units[1].state = runtime::UnitState::kFinished;
  report = runtime::audit(rt);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("app 1: pending unit count 2, recount 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("app 1: finished unit count 0, recount 1"),
            std::string::npos)
      << text;
}

// ------------------------------------------------------------ audit I10

/// Steps `sim` one event at a time, auditing after each, until `done`
/// holds or the queue drains. Returns whether `done` was reached.
template <typename Done>
bool step_audited(sim::Simulator& sim, const runtime::BoardRuntime& rt,
                  Done done) {
  while (!done()) {
    if (!sim.step()) return false;
    auto report = runtime::audit(rt);
    EXPECT_TRUE(report.ok()) << "t=" << sim.now() << " "
                             << report.to_string();
    if (!report.ok()) return false;
  }
  return true;
}

TEST(AuditI10, SumsAndCellMatchRecountAcrossEveryTransition) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::ScriptedPolicy policy(nullptr, /*dual=*/true);
  runtime::BoardRuntime rt(board, policy);
  runtime::LoadCell cell;
  rt.bind_load_cell(&cell);
  auto audited = [&](const char* what) {
    auto report = runtime::audit(rt);
    EXPECT_TRUE(report.ok()) << what << ": " << report.to_string();
  };
  const auto two = test::make_uniform_app("two", 2, sim::ms(1.0));
  const auto one = test::make_uniform_app("one", 1, sim::ms(1.0));
  const fpga::ResourceVector little = board.params().little_slot;
  const fpga::ResourceVector task = two.tasks[0].impl_usage;
  // The cell's value for a live set: nothing takes the D_switch window
  // here, so it holds every blocked event and PR request so far.
  auto expected = [&](int load, int batch, std::uint64_t specs) {
    const runtime::RuntimeCounters& c = rt.counters();
    return runtime::LoadCell{load, batch, specs,
                             c.pr_blocked + c.launch_blocked, c.pr_requests};
  };

  const int a = rt.submit(two, 0, /*batch=*/3, 0);
  const int b = rt.submit(one, 3, /*batch=*/2, 0);
  audited("admission");
  EXPECT_EQ(cell, expected(2, 5, 0b1001));
  auto unit = [&](int app, int u) -> const runtime::UnitRun& {
    return rt.app(app).units[static_cast<std::size_t>(u)];
  };
  auto configured_idle = [&](int app, int u) {
    return unit(app, u).state == runtime::UnitState::kRunning &&
           !unit(app, u).item_in_flight;
  };

  // PR done: the unit runs and its slot stays occupied.
  rt.request_pr(a, 0, 0);
  audited("PR issued");
  EXPECT_EQ(rt.occupied_resources(), little);
  ASSERT_TRUE(step_audited(sim, rt, [&] { return configured_idle(a, 0); }));
  EXPECT_EQ(rt.used_resources(), task);

  // Preempt between items.
  ASSERT_TRUE(step_audited(sim, rt, [&] {
    return configured_idle(a, 0) && unit(a, 0).items_done >= 1;
  }));
  rt.preempt_unit(a, 0);
  audited("preempt");
  EXPECT_EQ(rt.used_resources(), fpga::ResourceVector{});
  EXPECT_EQ(rt.occupied_resources(), fpga::ResourceVector{});

  // SEU-poisoned PR: the load lands dead and the slot frees.
  rt.request_pr(a, 1, 1);
  rt.inject_slot_seu(1);
  ASSERT_TRUE(step_audited(sim, rt, [&] {
    return unit(a, 1).state == runtime::UnitState::kPending;
  }));
  EXPECT_EQ(board.slot(1).state(), fpga::SlotState::kIdle);

  // SEU between items evicts on the spot.
  rt.request_pr(a, 0, 2);
  ASSERT_TRUE(step_audited(sim, rt, [&] { return configured_idle(a, 0); }));
  rt.inject_slot_seu(2);
  audited("SEU evict");
  EXPECT_EQ(unit(a, 0).state, runtime::UnitState::kPending);

  // SEU mid-item: the item completes mechanically and is discarded.
  rt.request_pr(a, 0, 3);
  ASSERT_TRUE(step_audited(sim, rt, [&] {
    return board.slot(3).state() == fpga::SlotState::kExecuting;
  }));
  const int done_before = unit(a, 0).items_done;
  rt.inject_slot_seu(3);
  ASSERT_TRUE(step_audited(sim, rt, [&] {
    return unit(a, 0).state == runtime::UnitState::kPending;
  }));
  EXPECT_EQ(unit(a, 0).items_done, done_before);

  // Unit finish and app completion: the spec's bit clears with its last
  // live app.
  rt.request_pr(a, 0, 4);
  rt.request_pr(a, 1, 5);
  ASSERT_TRUE(step_audited(
      sim, rt, [&] { return test::completion(rt, a) != nullptr; }));
  EXPECT_EQ(cell, expected(1, 2, 0b1000));
  EXPECT_GT(cell.prs, 0);
  EXPECT_EQ(rt.used_resources(), fpga::ResourceVector{});

  // Full-fabric reconfiguration (exclusive baseline): the fabric capacity
  // stands in for the occupied slots until the owner completes.
  rt.request_full_reconfig(b);
  audited("full reconfig issued");
  EXPECT_EQ(rt.occupied_resources(), board.fabric_capacity());
  ASSERT_TRUE(step_audited(sim, rt, [&] {
    return unit(b, 0).state == runtime::UnitState::kRunning;
  }));
  EXPECT_EQ(rt.used_resources(), one.tasks[0].impl_usage);
  ASSERT_TRUE(step_audited(
      sim, rt, [&] { return test::completion(rt, b) != nullptr; }));
  EXPECT_EQ(rt.full_fabric_app(), -1);
  EXPECT_EQ(rt.occupied_resources(), fpga::ResourceVector{});
  EXPECT_EQ(cell, expected(0, 0, 0));

  // Crash with a unit running: every sum and the cell drop to zero.
  const int c = rt.submit(two, 1, /*batch=*/5, sim.now());
  (void)rt.submit(one, 2, /*batch=*/5, sim.now());
  rt.request_pr(c, 0, 6);
  ASSERT_TRUE(step_audited(sim, rt, [&] { return configured_idle(c, 0); }));
  EXPECT_EQ(cell, expected(2, 10, 0b0110));
  (void)rt.crash();
  audited("crash");
  EXPECT_EQ(rt.used_resources(), fpga::ResourceVector{});
  EXPECT_EQ(rt.occupied_resources(), fpga::ResourceVector{});
  EXPECT_EQ(cell, expected(0, 0, 0));
  // The stale in-flight events die against the crash guards.
  (void)step_audited(sim, rt, [] { return false; });

  // An unbound runtime leaves its old cell alone and keeps the state,
  // window included, in its own cell.
  rt.bind_load_cell(nullptr);
  cell = runtime::LoadCell{7, 7, 7, 7, 7};
  audited("unbound");
  EXPECT_EQ(cell, (runtime::LoadCell{7, 7, 7, 7, 7}));
  EXPECT_EQ(rt.load_state(), expected(0, 0, 0));

  // Rebinding carries the state, window included, into the new cell, and
  // taking the window zeroes it there.
  runtime::LoadCell rebound;
  rt.bind_load_cell(&rebound);
  audited("rebound");
  EXPECT_EQ(rebound, expected(0, 0, 0));
  rebound.blocked = rebound.prs = 0;  // as Cluster::sample_and_act takes it
  audited("window taken");
  EXPECT_EQ(rebound, runtime::LoadCell{});
}

// -------------------------------------------------------- fault injection

TEST(FaultInjection, FailedLoadsRetryAndComplete) {
  sim::Simulator sim;
  sim::Core core(sim, "c0");
  fpga::Pcap pcap(sim);
  faults::FaultScenario scenario;
  scenario.seed = 42;
  scenario.pcap_crc_probability = 0.5;
  pcap.set_fault_model(scenario.pcap_crc_probability,
                       scenario.stream("pcap/0"));
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    pcap.request(sim::ms(1), core, [&] { ++done; });
  }
  sim.run();
  EXPECT_EQ(done, 20);
  EXPECT_EQ(pcap.stats().loads_completed, 20);
  EXPECT_GT(pcap.stats().load_failures, 0);
  // Total load time covers the retries.
  EXPECT_EQ(pcap.stats().total_load,
            sim::ms(1) * (20 + pcap.stats().load_failures));
}

TEST(FaultInjection, DeterministicGivenSeed) {
  auto run_one = [] {
    sim::Simulator sim;
    sim::Core core(sim, "c0");
    fpga::Pcap pcap(sim);
    faults::FaultScenario scenario;
    scenario.seed = 7;
    scenario.pcap_crc_probability = 0.3;
    pcap.set_fault_model(scenario.pcap_crc_probability,
                         scenario.stream("pcap/0"));
    for (int i = 0; i < 50; ++i) pcap.request(sim::ms(1), core, [] {});
    sim.run();
    return pcap.stats().load_failures;
  };
  EXPECT_EQ(run_one(), run_one());
}

TEST(FaultInjection, ZeroProbabilityNeverFails) {
  sim::Simulator sim;
  sim::Core core(sim, "c0");
  fpga::Pcap pcap(sim);
  faults::FaultScenario scenario;
  scenario.seed = 7;
  pcap.set_fault_model(scenario.pcap_crc_probability,
                       scenario.stream("pcap/0"));
  for (int i = 0; i < 50; ++i) pcap.request(sim::ms(1), core, [] {});
  sim.run();
  EXPECT_EQ(pcap.stats().load_failures, 0);
}

TEST(FaultInjection, WholeSystemSurvivesFlakyPcap) {
  // End-to-end: a VersaSlot run where 20% of PCAP loads fail verification
  // still completes every application, with invariants intact.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStandard;
  config.apps_per_sequence = 8;
  util::Rng rng(5);
  auto seq = workload::generate_sequence(config, rng);

  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::big_little(), params);
  faults::FaultScenario scenario;
  scenario.seed = 99;
  scenario.pcap_crc_probability = 0.2;
  board.pcap().set_fault_model(scenario.pcap_crc_probability,
                               scenario.stream("pcap/0"));
  auto policy = metrics::make_policy(metrics::SystemKind::kVersaBigLittle);
  runtime::BoardRuntime rt(board, *policy);
  for (const auto& a : seq) {
    sim.schedule_at(a.arrival, [&rt, &suite, a] {
      rt.submit(suite[static_cast<std::size_t>(a.spec_index)], a.spec_index,
                a.batch, a.arrival);
    });
  }
  sim.run();
  EXPECT_EQ(rt.completed().size(), seq.size());
  EXPECT_GT(board.pcap().stats().load_failures, 0);
  auto report = runtime::audit(rt);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// ------------------------------------------------------------------- DML

TEST(Dml, CompletesAndPipelinesMultiSlot) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  baselines::DmlPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  auto app = test::make_uniform_app("a", 6, sim::ms(5));
  int id = rt.submit(app, 0, 10, 0);
  int max_placed = 0;
  while (sim.step()) {
    max_placed = std::max(max_placed, test::units_placed(rt, id));
  }
  EXPECT_GT(max_placed, 1);  // pipelined, unlike naive FCFS
  EXPECT_NE(test::completion(rt, id), nullptr);
  EXPECT_STREQ(policy.name(), "DML");
  EXPECT_FALSE(policy.dual_core());
}

TEST(Dml, BackfillsPastBlockedHead) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  baselines::DmlPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  // First app grabs most slots with a long run; a second app wanting many
  // slots cannot start, but a third small app backfills ahead of it.
  auto big = test::make_uniform_app("big", 6, sim::ms(100));
  auto mid = test::make_uniform_app("mid", 6, sim::ms(50));
  auto tiny = test::make_uniform_app("tiny", 1, sim::ms(1));
  rt.submit(big, 0, 25, 0);
  sim.run(sim::ms(50));
  int mid_id = rt.submit(mid, 1, 25, sim.now());
  int tiny_id = rt.submit(tiny, 2, 1, sim.now());
  sim.run(sim::ms(2000));
  // tiny got a slot even while mid waits for its full allocation.
  EXPECT_TRUE(test::completion(rt, tiny_id) != nullptr ||
              rt.app(tiny_id).started);
  (void)mid_id;
  sim.run();
  EXPECT_EQ(rt.completed().size(), 3u);
}

TEST(Dml, InExperimentHarness) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 10;
  util::Rng rng(23);
  auto seq = workload::generate_sequence(config, rng);
  auto r = metrics::run_single_board(metrics::SystemKind::kDml, suite, seq);
  EXPECT_EQ(r.completed, 10);
  EXPECT_EQ(r.system, "DML");
}

}  // namespace
}  // namespace vs
