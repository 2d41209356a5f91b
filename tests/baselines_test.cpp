// Tests for the comparison scheduling policies: exclusive baseline, naive
// FCFS, round-robin, and Nimblock (priority + preemption + adaptive
// allocation, single-core).
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/benchmarks.h"
#include "baselines/baseline_exclusive.h"
#include "baselines/fcfs.h"
#include "baselines/nimblock.h"
#include "baselines/policy_common.h"
#include "baselines/round_robin.h"
#include "fpga/board.h"
#include "metrics/experiment.h"
#include "runtime/board_runtime.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "workload/generator.h"

namespace vs::baselines {
namespace {

using runtime::BoardRuntime;
using test::make_uniform_app;

struct Fixture {
  sim::Simulator sim;
  fpga::Board board;
  Fixture() : board(sim, "b0", fpga::FabricConfig::only_little()) {}
};

// ------------------------------------------------------- BaselineExclusive

TEST(BaselineExclusive, RunsAppsOneAtATime) {
  Fixture f;
  BaselineExclusivePolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(5));
  rt.submit(app, 0, 2, 0);
  rt.submit(app, 0, 2, 0);
  // While the first app is live, the second must not have started.
  bool overlap = false;
  bool observed = false;
  for (int i = 0; i < 200000 && f.sim.step(); ++i) {
    const bool first_live = rt.live(0) && rt.app(0).started;
    if (first_live && rt.live(1) && rt.app(1).started) overlap = true;
    if (first_live) observed = true;
  }
  EXPECT_TRUE(observed);
  EXPECT_FALSE(overlap);
  EXPECT_EQ(rt.completed().size(), 2u);
  EXPECT_EQ(rt.counters().pr_requests, 2);  // one full reconfig each
}

TEST(BaselineExclusive, FullReconfigDominatesResponse) {
  Fixture f;
  BaselineExclusivePolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(1));
  rt.submit(app, 0, 1, 0);
  f.sim.run();
  const fpga::BoardParams& p = f.board.params();
  ASSERT_EQ(rt.completed().size(), 1u);
  EXPECT_GT(rt.completed()[0].response_ms(),
            sim::to_ms(p.pcap_load_time(p.full_bitstream_bytes) +
                       p.full_reconfig_restart));
}

// -------------------------------------------------------------------- FCFS

TEST(Fcfs, OneSlotPerApp) {
  Fixture f;
  FcfsPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 4, sim::ms(2));
  int id = rt.submit(app, 0, 3, 0);
  // At no point may the app hold more than one slot.
  int max_placed = 0;
  while (f.sim.step()) {
    max_placed = std::max(max_placed, test::units_placed(rt, id));
  }
  EXPECT_EQ(max_placed, 1);
  EXPECT_NE(test::completion(rt, id), nullptr);
  EXPECT_EQ(rt.counters().pr_requests, 4);  // each task swapped in once
}

TEST(Fcfs, ServesArrivalOrder) {
  Fixture f;
  FcfsPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(50));
  // 10 apps, 8 slots: the last two wait; earlier arrivals start first.
  for (int i = 0; i < 10; ++i) rt.submit(app, 0, 2, 0);
  f.sim.run(sim::ms(50));
  int started = 0;
  for (int id : rt.live_ids()) started += rt.app(id).started;
  EXPECT_EQ(started, 8);
  EXPECT_FALSE(rt.app(8).started);
  EXPECT_FALSE(rt.app(9).started);
  f.sim.run();
  EXPECT_EQ(rt.completed().size(), 10u);
}

TEST(Fcfs, AllAppsComplete) {
  Fixture f;
  FcfsPolicy policy;
  BoardRuntime rt(f.board, policy);
  auto suite = apps::make_suite(f.board.params());
  for (int i = 0; i < 5; ++i) {
    rt.submit(suite[static_cast<std::size_t>(i)], i, 3, 0);
  }
  f.sim.run();
  EXPECT_EQ(rt.completed().size(), 5u);
}

// -------------------------------------------------------------- RoundRobin

TEST(RoundRobin, RotatesGrants) {
  Fixture f;
  RoundRobinPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(2));
  for (int i = 0; i < 12; ++i) rt.submit(app, 0, 2, 0);
  f.sim.run();
  EXPECT_EQ(rt.completed().size(), 12u);
}

TEST(RoundRobin, OneSlotPerApp) {
  Fixture f;
  RoundRobinPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 3, sim::ms(2));
  int id = rt.submit(app, 0, 2, 0);
  int max_placed = 0;
  while (f.sim.step()) {
    max_placed = std::max(max_placed, test::units_placed(rt, id));
  }
  EXPECT_EQ(max_placed, 1);
}

// ---------------------------------------------------------------- Nimblock

TEST(Nimblock, SingleCoreFlag) {
  NimblockPolicy policy;
  EXPECT_FALSE(policy.dual_core());
  EXPECT_STREQ(policy.name(), "Nimblock");
}

TEST(Nimblock, UsesMultipleSlotsPerApp) {
  Fixture f;
  NimblockPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 6, sim::ms(5));
  int id = rt.submit(app, 0, 10, 0);
  int max_placed = 0;
  while (f.sim.step()) {
    max_placed = std::max(max_placed, test::units_placed(rt, id));
  }
  EXPECT_GT(max_placed, 1);  // pipelined execution
  EXPECT_NE(test::completion(rt, id), nullptr);
}

TEST(Nimblock, PreemptsForStarvingApp) {
  Fixture f;
  NimblockOptions opts;
  opts.starvation_threshold = sim::ms(50.0);
  opts.preempt_cooldown = sim::ms(10.0);
  NimblockPolicy policy(opts);
  BoardRuntime rt(f.board, policy);
  // One long app that would monopolise all 8 slots...
  apps::AppSpec big = make_uniform_app("big", 8, sim::ms(200));
  rt.submit(big, 0, 30, 0);
  // ... and a short app arriving later.
  apps::AppSpec small = make_uniform_app("small", 1, sim::ms(1));
  f.sim.schedule(sim::ms(500), [&] { rt.submit(small, 1, 1, sim::ms(500)); });
  f.sim.run(sim::seconds(30.0));
  EXPECT_GT(rt.counters().preemptions, 0);
  // The small app finished long before the big one's natural end.
  bool small_done = false;
  for (const auto& c : rt.completed()) {
    if (c.name == "small") small_done = true;
  }
  EXPECT_TRUE(small_done);
}

TEST(Nimblock, AdaptiveAllocationShrinksUnderLoad) {
  Fixture f;
  NimblockPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 6, sim::ms(10));
  // 8 contenders over 8 slots: fair share is 1 slot per app.
  std::vector<int> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(rt.submit(app, 0, 5, 0));
  f.sim.run(sim::ms(500));
  int max_placed = 0;
  for (int id : ids) {
    max_placed = std::max(max_placed, test::units_placed(rt, id));
  }
  EXPECT_LE(max_placed, 2);
  f.sim.run();
  EXPECT_EQ(rt.completed().size(), 8u);
}

TEST(Nimblock, ShortJobFirstOrdering) {
  Fixture f;
  NimblockPolicy policy;
  BoardRuntime rt(f.board, policy);
  // Saturate the board, then submit one long and one short waiting app:
  // the short one should start (and finish) first.
  apps::AppSpec filler = make_uniform_app("filler", 8, sim::ms(100));
  rt.submit(filler, 0, 10, 0);
  apps::AppSpec longer = make_uniform_app("long", 6, sim::ms(80));
  apps::AppSpec shorter = make_uniform_app("short", 2, sim::ms(2));
  f.sim.schedule(sim::ms(10), [&] {
    rt.submit(longer, 1, 20, sim::ms(10));
    rt.submit(shorter, 2, 2, sim::ms(10));
  });
  f.sim.run();
  ASSERT_EQ(rt.completed().size(), 3u);
  sim::SimTime short_done = 0, long_done = 0;
  for (const auto& c : rt.completed()) {
    if (c.name == "short") short_done = c.completed;
    if (c.name == "long") long_done = c.completed;
  }
  EXPECT_LT(short_done, long_done);
}

TEST(Nimblock, EqualEstimatesKeepSubmissionOrder) {
  Fixture f;
  NimblockPolicy policy;
  BoardRuntime rt(f.board, policy);
  // 24 identical apps (more than the 16 that std::sort orders by insertion
  // sort, which would keep ties in place by accident) reach the first pass
  // together: fair share is one slot each, so the 8 slots go to the first 8
  // in priority order, which on equal estimates is submission order.
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(5));
  for (int i = 0; i < 24; ++i) rt.submit(app, 0, 2, 0);
  while (rt.counters().passes == 0 && f.sim.step()) {
  }
  ASSERT_EQ(rt.counters().passes, 1);
  for (int id = 0; id < 24; ++id) {
    EXPECT_EQ(rt.app(id).units_placed(), id < 8 ? 1 : 0) << "app " << id;
  }
}

// ------------------------------------------------------------ policy_common

TEST(PolicyCommon, NextPendingUnitInPipelineOrder) {
  Fixture f;
  test::ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 3, sim::ms(1));
  int id = rt.submit(app, 0, 1, 0);
  EXPECT_EQ(rt.app(id).next_pending_unit(), 0);
  rt.request_pr(id, 0, 0);
  EXPECT_EQ(rt.app(id).next_pending_unit(), 1);
  EXPECT_EQ(rt.app(id).units_pending(), 2);
}

TEST(PolicyCommon, LiveAppsSkipsDoneAndExtracted) {
  Fixture f;
  test::GreedyPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(1));
  rt.submit(app, 0, 1, 0);
  f.sim.run();
  EXPECT_TRUE(rt.live_ids().empty());
}

TEST(PolicyCommon, GrantRespectsCaps) {
  Fixture f;
  test::ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 6, sim::ms(1));
  int id = rt.submit(app, 0, 1, 0);
  std::vector<int> idle;
  grant_little_slots(rt, {id}, {2}, idle);
  EXPECT_EQ(rt.app(id).units_placed(), 2);
  // The caller's buffer keeps the slots nobody was granted.
  EXPECT_EQ(static_cast<int>(idle.size()),
            f.board.count_slots(fpga::SlotKind::kLittle) - 2);
}

// ------------------------------------------------------------------ golden

/// FNV-1a over every CompletedApp field, in completion order, then the
/// counters a policy's decisions move.
std::uint64_t decision_hash(const metrics::RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const runtime::CompletedApp& c : r.apps) {
    add(c.app_id);
    add(c.spec_index);
    for (char ch : c.name) add(ch);
    add(c.arrival);
    add(c.completed);
    add(c.tenant);
    for (sim::SimDuration p : c.phase_ns) add(p);
  }
  add(r.counters.passes);
  add(r.counters.preemptions);
  add(r.counters.pr_requests);
  add(r.counters.pr_blocked);
  add(r.counters.launch_blocked);
  return h;
}

// Pins every decision of the four slot-sharing baselines (DML has no
// committed CSV and no e2ebench digest, so nothing else pins it): any
// change to their order, caps, preemption or placement moves a hash.
// FCFS and RR differ only in whom a free slot goes to while several apps
// wait, which these Standard sequences never make them decide differently.
TEST(BaselineGolden, EachPolicyKeepsItsDecisions) {
  struct Case {
    metrics::SystemKind kind;
    // Standard @2025, Stress @2025, Standard @7, Stress @7.
    std::uint64_t hash[4];
  };
  const Case cases[] = {
      {metrics::SystemKind::kFcfs,
       {15021326053413338722ULL, 4647215931961187772ULL,
        5168322438857453718ULL, 10670190428895095079ULL}},
      {metrics::SystemKind::kRoundRobin,
       {15021326053413338722ULL, 8785684730675466004ULL,
        5168322438857453718ULL, 8765497361291924315ULL}},
      {metrics::SystemKind::kNimblock,
       {3694002044335524215ULL, 12921935959665772350ULL,
        6720790881315731679ULL, 17423879433764859577ULL}},
      {metrics::SystemKind::kDml,
       {14436593319107697167ULL, 13235460285390377019ULL,
        9619594925501704944ULL, 16048098154274693673ULL}},
  };
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  metrics::RunOptions options;
  options.phase_accounting = true;
  for (const Case& c : cases) {
    int i = 0;
    for (std::uint64_t seed : {2025u, 7u}) {
      for (workload::Congestion congestion :
           {workload::Congestion::kStandard, workload::Congestion::kStress}) {
        workload::WorkloadConfig config;
        config.congestion = congestion;
        config.apps_per_sequence = 20;
        auto sequence = workload::generate_sequences(config, 1, seed)[0];
        auto result = metrics::run_single_board(c.kind, suite, sequence,
                                                options);
        EXPECT_EQ(result.completed, 20);
        EXPECT_EQ(decision_hash(result), c.hash[i])
            << metrics::system_name(c.kind) << " "
            << workload::congestion_name(congestion) << " seed " << seed;
        ++i;
      }
    }
  }
}

}  // namespace
}  // namespace vs::baselines
