// Tests for the cluster layer: Aurora link, live migration, cross-board
// switching, pre-warming, end-to-end cluster runs, a frozen seed-2025
// golden, and D_switch transfers that land while target boards are down.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/benchmarks.h"
#include "cluster/aurora.h"
#include "cluster/cluster.h"
#include "faults/scenario.h"
#include "metrics/experiment.h"
#include "obs/trace_hub.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "workload/generator.h"
#include "workload/patterns.h"

namespace vs::cluster {
namespace {

TEST(Aurora, TransferTiming) {
  sim::Simulator sim;
  AuroraLink link(sim);
  sim::SimTime done = -1;
  link.transfer(1'250'000, [&] { done = sim.now(); });  // 1 ms at 10 Gb/s
  sim.run();
  EXPECT_EQ(done, link.params().transfer_time(1'250'000));
  EXPECT_NEAR(sim::to_ms(done), 1.02, 0.05);
  EXPECT_EQ(link.transfers(), 1);
  EXPECT_EQ(link.bytes_moved(), 1'250'000);
}

TEST(Aurora, SerializesTransfers) {
  sim::Simulator sim;
  AuroraLink link(sim);
  std::vector<int> order;
  link.transfer(1'250'000, [&] { order.push_back(1); });
  link.transfer(1'250'000, [&] { order.push_back(2); });
  EXPECT_TRUE(link.busy());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

struct ClusterFixture {
  sim::Simulator sim;
  fpga::BoardParams params;
  std::vector<apps::AppSpec> suite;
  ClusterFixture() : suite(apps::make_suite(params)) {}

  workload::Sequence stress_sequence(int n, std::uint64_t seed) {
    workload::WorkloadConfig config;
    config.congestion = workload::Congestion::kStress;
    config.apps_per_sequence = n;
    util::Rng rng(seed);
    return workload::generate_sequence(config, rng);
  }
};

TEST(Cluster, RejectsSuitesWiderThanTheLoadCellMask) {
  // Affinity routing keeps one load-cell bit per spec.
  ClusterFixture f;
  std::vector<apps::AppSpec> wide(
      static_cast<std::size_t>(runtime::LoadCell::kSpecBits) + 1,
      f.suite.front());
  EXPECT_THROW(Cluster(f.sim, wide, ClusterOptions{}), std::invalid_argument);
  wide.pop_back();
  Cluster fits(f.sim, wide, ClusterOptions{});
  EXPECT_EQ(fits.active_board_count(), 1);
}

TEST(Cluster, AllAppsCompleteWithSwitching) {
  ClusterFixture f;
  ClusterOptions options;
  Cluster cluster(f.sim, f.suite, options);
  cluster.submit_sequence(f.stress_sequence(40, 3));
  f.sim.run();
  EXPECT_TRUE(cluster.all_done());
  EXPECT_EQ(cluster.completed().size(), 40u);
}

TEST(Cluster, SwitchTriggersUnderSustainedCongestion) {
  ClusterFixture f;
  ClusterOptions options;
  Cluster cluster(f.sim, f.suite, options);
  cluster.submit_sequence(f.stress_sequence(60, 5));
  f.sim.run();
  ASSERT_FALSE(cluster.switches().empty());
  const SwitchEvent& e = cluster.switches().front();
  EXPECT_EQ(e.to, core::SwitchLoop::Config::kBigLittle);
  EXPECT_GE(e.dswitch, options.t1);
  EXPECT_GT(e.apps_migrated, 0);
  EXPECT_GT(e.bytes, 4096);
  EXPECT_GT(e.overhead, 0);
  // Migration overhead stays in the low-millisecond band the paper reports.
  EXPECT_LT(sim::to_ms(e.overhead), 50.0);
}

TEST(Cluster, NoSwitchingWhenDisabled) {
  ClusterFixture f;
  ClusterOptions options;
  options.enable_switching = false;
  Cluster cluster(f.sim, f.suite, options);
  cluster.submit_sequence(f.stress_sequence(40, 5));
  f.sim.run();
  EXPECT_TRUE(cluster.switches().empty());
  EXPECT_TRUE(cluster.all_done());
  EXPECT_EQ(cluster.active_config(), core::SwitchLoop::Config::kOnlyLittle);
}

TEST(Cluster, DSwitchTraceIsSampledEveryPeriod) {
  ClusterFixture f;
  ClusterOptions options;
  options.enable_switching = false;
  options.dswitch_period = 4;
  Cluster cluster(f.sim, f.suite, options);
  cluster.submit_sequence(f.stress_sequence(40, 5));
  f.sim.run();
  // 40 arrivals + 40 completions = 80 updates -> 20 samples.
  EXPECT_EQ(cluster.dswitch().trace().size(), 20u);
  for (const core::DSwitchSample& s : cluster.dswitch().trace()) {
    EXPECT_GE(s.value, 0.0);
    EXPECT_LE(s.value, 1.0);
  }
}

TEST(Cluster, NoSwitchUnderLooseLoad) {
  ClusterFixture f;
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kLoose;
  config.apps_per_sequence = 15;
  util::Rng rng(9);
  ClusterOptions options;
  Cluster cluster(f.sim, f.suite, options);
  cluster.submit_sequence(workload::generate_sequence(config, rng));
  f.sim.run();
  EXPECT_TRUE(cluster.switches().empty());
  EXPECT_TRUE(cluster.all_done());
}

TEST(Cluster, MigratedAppsKeepOriginalArrival) {
  ClusterFixture f;
  ClusterOptions options;
  Cluster cluster(f.sim, f.suite, options);
  workload::Sequence seq = f.stress_sequence(60, 5);
  cluster.submit_sequence(seq);
  f.sim.run();
  ASSERT_FALSE(cluster.switches().empty());
  // Every submitted app completed exactly once with response time measured
  // from the original arrival (i.e. strictly positive and finite).
  EXPECT_EQ(cluster.completed().size(), seq.size());
  for (const runtime::CompletedApp& c : cluster.completed()) {
    EXPECT_GT(c.completed, c.arrival);
  }
}

TEST(Cluster, SwitchingImprovesCongestedResponse) {
  ClusterFixture f;
  workload::Sequence seq = f.stress_sequence(60, 5);

  metrics::ClusterRunResult with_sw =
      metrics::run_cluster(f.suite, seq, ClusterOptions{});
  ClusterOptions off;
  off.enable_switching = false;
  metrics::ClusterRunResult without_sw =
      metrics::run_cluster(f.suite, seq, off);

  ASSERT_EQ(with_sw.completed, 60);
  ASSERT_EQ(without_sw.completed, 60);
  EXPECT_LT(with_sw.response.mean, without_sw.response.mean);
}

TEST(Cluster, PrewarmPopulatesSpareSdCache) {
  // Run with prewarm enabled and check that post-switch PRs on the
  // Big.Little board hit the warmed cache (few SD misses).
  ClusterFixture f;
  ClusterOptions warm;
  metrics::ClusterRunResult with_warm =
      metrics::run_cluster(f.suite, f.stress_sequence(60, 5), warm);
  ClusterOptions cold = warm;
  cold.enable_prewarm = false;
  metrics::ClusterRunResult without_warm =
      metrics::run_cluster(f.suite, f.stress_sequence(60, 5), cold);
  ASSERT_FALSE(with_warm.switches.empty());
  ASSERT_FALSE(without_warm.switches.empty());
  // Pre-warming must never hurt.
  EXPECT_LE(with_warm.response.mean, without_warm.response.mean * 1.001);
}

TEST(Cluster, DeterministicAcrossRuns) {
  ClusterFixture f;
  workload::Sequence seq = f.stress_sequence(40, 5);
  metrics::ClusterRunResult a =
      metrics::run_cluster(f.suite, seq, ClusterOptions{});
  metrics::ClusterRunResult b =
      metrics::run_cluster(f.suite, seq, ClusterOptions{});
  ASSERT_EQ(a.response_ms.size(), b.response_ms.size());
  for (std::size_t i = 0; i < a.response_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.response_ms[i], b.response_ms[i]);
  }
  EXPECT_EQ(a.switches.size(), b.switches.size());
}

// Frozen seed-2025 golden: pins the event order itself (equal-time events
// fire in schedule order), so a kernel or scheduling change that reorders
// events fails here. Update ONLY for an intentional, documented change.
// The event count fell from 6485 when each item's input DMA was folded
// into its execution event (three kernel events per item, not four); the
// completion times and the mean response did not move.
TEST(ClusterGolden, Seed2025FaultFreeRunIsFrozen) {
  ClusterFixture f;
  metrics::ClusterRunResult r = metrics::run_cluster(
      f.suite, f.stress_sequence(25, 2025), ClusterOptions{});
  EXPECT_EQ(r.submitted, 25);
  EXPECT_EQ(r.completed, 25);
  EXPECT_EQ(r.events, 4962u);
  EXPECT_EQ(r.apps.front().completed, 4098471994);
  EXPECT_EQ(r.apps.back().completed, 12807039199);
  EXPECT_EQ(r.response.mean, 6184.2995846799995);
}

// --- D_switch landings with target boards down --------------------------

// Twelve Fig 8 cycles (30 stress + 50 standard apps each) under crash,
// flap and SEU hazards with delta checkpoints. At fault seeds 4 and 10 a
// D_switch fires while every active board is down, so the switch has no
// origin board to name in its flow and journal records.
TEST(DSwitchDown, SwitchWithEveryActiveBoardDownKeepsEveryApp) {
  ClusterFixture f;
  for (std::uint64_t seed : {4u, 10u}) {
    std::vector<workload::Phase> phases;
    for (int c = 0; c < 12; ++c) {
      phases.push_back({30, workload::Congestion::kStress});
      phases.push_back({50, workload::Congestion::kStandard});
    }
    util::Rng rng(seed);
    workload::Sequence seq = workload::phased_sequence(phases, rng);
    for (bool precopy : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (precopy ? " pre-copy" : " whole-state"));
      obs::ClusterTraceHub hub;
      hub.enable_trace();
      hub.enable_journal();
      ClusterOptions options;
      options.faults.seed = seed;
      options.faults.hazards.board_crash_per_s = 0.004;
      options.faults.hazards.link_flap_per_s = 0.01;
      options.faults.hazards.slot_seu_per_s = 0.02;
      options.faults.horizon = seq.back().arrival;
      options.checkpoint.enabled = true;
      options.checkpoint.delta = true;
      options.migration.precopy = precopy;
      options.hub = &hub;
      metrics::ClusterRunResult r = metrics::run_cluster(f.suite, seq, options);
      test::expect_app_conservation(r);
      const int poolless = test::count_lines(
          test::journal_lines(hub),
          {"\"event\":\"migrate\"", "\"board\":\"cluster\""});
      // The cluster stands in as the origin of the switch that found the
      // active pool empty.
      EXPECT_GE(poolless, 1);
    }
  }
}

// A whole-state switch whose only target board crashes while the state is
// still on the Aurora link: the landing finds no active board, queues the
// apps for re-admission, and the reboot drains them.
TEST(DSwitchDown, TargetCrashDuringWholeStateTransferRequeuesApps) {
  ClusterFixture f;
  workload::Sequence seq = workload::fig8_long_workload(2025);
  metrics::ClusterRunResult fault_free =
      metrics::run_cluster(f.suite, seq, ClusterOptions{});
  ASSERT_FALSE(fault_free.switches.empty());
  const SwitchEvent& sw = fault_free.switches.front();
  ASSERT_EQ(sw.to, core::SwitchLoop::Config::kBigLittle);
  ASSERT_GT(sw.apps_migrated, 0);

  ClusterOptions options;
  // Plane board 1 is BL0 (the OL pool registers first); the 1 us delay is
  // well inside the 20 us Aurora setup window.
  options.faults.timeline.push_back(
      {sw.time + sim::us(1.0), faults::FaultKind::kBoardCrash, 1, -1});
  metrics::ClusterRunResult r = metrics::run_cluster(f.suite, seq, options);
  ASSERT_FALSE(r.switches.empty());
  EXPECT_EQ(r.switches.front().time, sw.time);
  EXPECT_EQ(r.switches.front().apps_migrated, sw.apps_migrated);
  EXPECT_EQ(r.recovery.boards_crashed, 1);
  EXPECT_GE(r.recovery.readmissions, sw.apps_migrated);
  EXPECT_EQ(r.completed, r.submitted);
  test::expect_app_conservation(r);
}

// The same switch, traced: its apps all queue for re-admission, so none
// resumes on a destination, yet its migration flow ends at the landing like
// every other. Every flow on the coordinator's channel (switches and crash
// batches) that starts also ends, once.
TEST(DSwitchDown, MigrationFlowEndsWhenNoAppResumes) {
  ClusterFixture f;
  workload::Sequence seq = workload::fig8_long_workload(2025);
  const SwitchEvent sw =
      metrics::run_cluster(f.suite, seq, ClusterOptions{}).switches.front();

  obs::ClusterTraceHub hub;
  hub.enable_trace();
  ClusterOptions options;
  options.hub = &hub;
  options.faults.timeline.push_back(
      {sw.time + sim::us(1.0), faults::FaultKind::kBoardCrash, 1, -1});
  metrics::ClusterRunResult r = metrics::run_cluster(f.suite, seq, options);
  ASSERT_GT(r.switches.front().apps_migrated, 0);
  ASSERT_GE(r.recovery.readmissions, r.switches.front().apps_migrated);

  std::map<std::uint64_t, std::pair<int, int>> starts_ends;
  int landed_empty = 0;
  const obs::TraceChannel& cluster = hub.channel("cluster");
  for (const obs::TraceChannel::Flow& flow : cluster.flows()) {
    auto& [starts, ends] = starts_ends[flow.id];
    starts += flow.phase == obs::FlowPhase::kStart;
    ends += flow.phase == obs::FlowPhase::kEnd;
    landed_empty += cluster.name(flow) == "landed, nothing resumed";
  }
  EXPECT_EQ(landed_empty, 1);
  for (const auto& [id, counts] : starts_ends) {
    EXPECT_EQ(counts, std::make_pair(1, 1)) << "flow " << id;
  }
}

}  // namespace
}  // namespace vs::cluster
