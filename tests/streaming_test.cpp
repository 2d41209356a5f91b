// Tests for dynamic batch processing (§III-A): streamed batches whose
// items become available over time, gating the first pipeline stage.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/benchmarks.h"
#include "fpga/board.h"
#include "metrics/experiment.h"
#include "runtime/board_runtime.h"
#include "runtime/invariants.h"
#include "sim/simulator.h"
#include "test_helpers.h"

namespace vs::runtime {
namespace {

using test::GreedyPolicy;
using test::make_uniform_app;

TEST(Streaming, ItemsAvailableFollowsSourceRate) {
  AppRun app;
  app.arrival = sim::ms(100);
  app.batch = 10;
  app.item_interval = sim::ms(50);
  EXPECT_EQ(app.items_available(0), 0);            // before arrival
  EXPECT_EQ(app.items_available(sim::ms(100)), 1);  // first item at arrival
  EXPECT_EQ(app.items_available(sim::ms(149)), 1);
  EXPECT_EQ(app.items_available(sim::ms(150)), 2);
  EXPECT_EQ(app.items_available(sim::ms(500)), 9);
  EXPECT_EQ(app.items_available(sim::seconds(10)), 10);  // capped at batch
}

TEST(Streaming, StagedBatchIsFullyAvailable) {
  AppRun app;
  app.batch = 7;
  app.item_interval = 0;
  EXPECT_EQ(app.items_available(0), 7);
}

TEST(Streaming, ExecutionPacedBySource) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  GreedyPolicy policy;
  BoardRuntime rt(board, policy);
  // Fast kernel (1 ms/item) fed by a slow source (100 ms/item): the run is
  // source-bound, so completion ≈ arrival + (batch-1)*interval + pipeline.
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(1));
  int id = rt.submit(app, 0, /*batch=*/5, /*arrival=*/0,
                     /*item_interval=*/sim::ms(100));
  sim.run();
  const CompletedApp* done = test::completion(rt, id);
  ASSERT_NE(done, nullptr);
  EXPECT_GE(done->completed, sim::ms(400));  // 5th item at t=400ms
  EXPECT_LT(done->completed, sim::ms(700));
  EXPECT_TRUE(audit(rt).ok());
}

TEST(Streaming, FastSourceDoesNotSlowExecution) {
  auto completion = [](sim::SimDuration interval) {
    sim::Simulator sim;
    fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
    GreedyPolicy policy;
    BoardRuntime rt(board, policy);
    apps::AppSpec app = make_uniform_app("a", 2, sim::ms(20));
    int id = rt.submit(app, 0, 10, 0, interval);
    sim.run();
    return test::completion(rt, id)->completed;
  };
  // Source faster than the kernel: negligible effect vs staged.
  sim::SimTime staged = completion(0);
  sim::SimTime fast_stream = completion(sim::ms(1));
  EXPECT_LT(fast_stream, staged + sim::ms(30));
}

TEST(Streaming, DownstreamStagesUnaffectedBySourceGating) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  GreedyPolicy policy;
  BoardRuntime rt(board, policy);
  apps::AppSpec app = make_uniform_app("a", 3, sim::ms(2));
  int id = rt.submit(app, 0, 4, 0, sim::ms(30));
  sim.run();
  ASSERT_NE(test::completion(rt, id), nullptr);
  EXPECT_EQ(rt.counters().items_executed, 12);  // all 4 items on 3 units
}

TEST(Streaming, WorksThroughExperimentHarness) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::Sequence seq;
  for (int i = 0; i < 4; ++i) {
    apps::AppArrival a;
    a.spec_index = i % 5;
    a.batch = 8;
    a.arrival = sim::ms(200.0 * i);
    a.item_interval = sim::ms(40.0);  // 25 items/s live feed
    seq.push_back(a);
  }
  auto r = metrics::run_single_board(metrics::SystemKind::kVersaBigLittle,
                                     suite, seq);
  EXPECT_EQ(r.completed, 4);
}

TEST(Streaming, StreamedBatchSurvivesMigrationExtraction) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::ScriptedPolicy policy;
  BoardRuntime rt(board, policy);
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(1));
  rt.submit(app, 0, 6, 0, sim::ms(10));
  auto migrated = rt.extract_unstarted();
  ASSERT_EQ(migrated.size(), 1u);
  // Descriptor is staged-size based (items stream on the target too).
  EXPECT_GT(migrated[0].state_bytes, 4096);
}

// A stream kick outlives its app when a migration takes the app first, and
// by then the app's slot may hold the next admission. The stale kick still
// runs its pass (a core op, so it moves the timing) but leaves the new
// occupant's kick and launch mark alone.
TEST(Streaming, StaleKickSparesTheNextAppInItsSlot) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  GreedyPolicy policy;
  BoardRuntime rt(board, policy);
  const apps::AppSpec app = make_uniform_app("a", 1, sim::ms(1));
  const int a = rt.submit(app, 0, /*batch=*/5, /*arrival=*/0,
                          /*item_interval=*/sim::ms(200));
  // A runs its first item, then waits for its source's second.
  while (rt.app(a).stream_kick < 0 && sim.step()) {
  }
  const sim::SimTime stale_at = rt.app(a).stream_kick;
  ASSERT_GT(stale_at, sim.now());
  rt.preempt_unit(a, 0);
  ASSERT_EQ(rt.extract_migratable().size(), 1u);
  ASSERT_FALSE(rt.live(a));

  // B reuses A's slot and waits for its own, slower source.
  const int b = rt.submit(app, 0, 5, sim.now(), sim::ms(400));
  EXPECT_EQ(rt.app_slots(), 1u);
  while (rt.app(b).stream_kick < 0 && sim.step()) {
  }
  const sim::SimTime b_kick = rt.app(b).stream_kick;
  ASSERT_GT(b_kick, stale_at);
  sim.run(stale_at - 1);
  ASSERT_FALSE(rt.app(b).launch_marked);
  const std::int64_t passes = rt.counters().passes;

  sim.run(stale_at);  // the stale kick fires
  EXPECT_EQ(rt.app(b).stream_kick, b_kick);
  EXPECT_FALSE(rt.app(b).launch_marked);
  EXPECT_TRUE(rt.launch_marks().empty());
  sim.run(stale_at + board.params().sched_pass_cost);
  EXPECT_EQ(rt.counters().passes, passes + 1);
  sim.run();
  EXPECT_NE(test::completion(rt, b), nullptr);
  EXPECT_TRUE(audit(rt).ok());
}

// ------------------------------------------------------------------ golden

/// FNV-1a over every CompletedApp field and its spec's name, in completion
/// order, then the counters the item pipeline and the policy's decisions
/// move.
std::uint64_t completion_hash(const metrics::RunResult& r,
                              const std::vector<apps::AppSpec>& suite) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const CompletedApp& c : r.apps) {
    add(c.app_id);
    add(c.spec_index);
    for (char ch : suite[static_cast<std::size_t>(c.spec_index)].name) {
      add(ch);
    }
    add(c.arrival);
    add(c.completed);
    add(c.tenant);
    for (sim::SimDuration p : c.phase_ns) add(p);
  }
  add(r.counters.passes);
  add(r.counters.items_executed);
  add(r.counters.preemptions);
  add(r.counters.pr_requests);
  add(r.counters.pr_blocked);
  add(r.counters.launch_blocked);
  return h;
}

// No committed CSV and no e2ebench digest streams batch items, so this pins
// the streamed path for every system, on test::mixed_stream_sequence.
TEST(StreamingGolden, EachSystemKeepsItsStreamedCompletions) {
  // Seed 2025, seed 7; indexed by SystemKind. Computed while every pass
  // still walked every live app for launches.
  constexpr std::uint64_t kGolden[metrics::kSystemCountExtended][2] = {
      {11075276340986315330ULL, 14672226574156274054ULL},  // Baseline
      {18262044503090929268ULL, 4053615752776570217ULL},   // FCFS
      {7237874026219548855ULL, 14715765002943348841ULL},   // RR
      {14952320570109771319ULL, 9974510884737917047ULL},   // Nimblock
      {11816036764458941957ULL, 18284485864627464442ULL},  // VersaSlot-OL
      {10298471021805662833ULL, 2100083502583207811ULL},   // VersaSlot-BL
      {6863756949950289602ULL, 14188923476602640471ULL},   // DML
  };
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  metrics::RunOptions options;
  options.phase_accounting = true;
  int s = 0;
  for (std::uint64_t seed : {2025u, 7u}) {
    const workload::Sequence sequence = test::mixed_stream_sequence(seed);
    for (int k = 0; k < metrics::kSystemCountExtended; ++k) {
      const auto kind = static_cast<metrics::SystemKind>(k);
      auto result = metrics::run_single_board(kind, suite, sequence, options);
      EXPECT_EQ(result.completed, 20) << metrics::system_name(kind);
      EXPECT_EQ(completion_hash(result, suite), kGolden[k][s])
          << metrics::system_name(kind) << " seed " << seed;
    }
    ++s;
  }
}

}  // namespace
}  // namespace vs::runtime
