// Tests for the extension subsystems: quality metrics, workload patterns
// and persistence, progress-carrying live migration, and the N-board
// cluster generalisation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "apps/benchmarks.h"
#include "cluster/cluster.h"
#include "fpga/board.h"
#include "metrics/experiment.h"
#include "metrics/quality.h"
#include "runtime/board_runtime.h"
#include "runtime/invariants.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "workload/patterns.h"

namespace vs {
namespace {

// ----------------------------------------------------------------- quality

TEST(Quality, AloneEstimatePositiveAndGrowsWithBatch) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  for (const auto& app : suite) {
    auto small = metrics::alone_estimate(app, 5, params);
    auto large = metrics::alone_estimate(app, 30, params);
    EXPECT_GT(small, 0);
    EXPECT_GT(large, small);
  }
}

TEST(Quality, ReportFromRealRun) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 12;
  util::Rng rng(5);
  auto seq = workload::generate_sequence(config, rng);
  auto run = metrics::run_single_board(metrics::SystemKind::kVersaBigLittle,
                                       suite, seq);
  metrics::QualityReport q = metrics::quality(run, suite, seq, params);
  EXPECT_GT(q.mean_slowdown, 0.0);
  EXPECT_GE(q.p95_slowdown, q.mean_slowdown * 0.5);
  EXPECT_GE(q.max_slowdown, q.p95_slowdown);
  EXPECT_GT(q.jain_fairness, 0.0);
  EXPECT_LE(q.jain_fairness, 1.0);
  EXPECT_GT(q.makespan_s, 0.0);
  EXPECT_GT(q.throughput_apps_per_s, 0.0);
}

TEST(Quality, EmptyRunYieldsZeroReport) {
  metrics::RunResult run;
  metrics::QualityReport q = metrics::quality(run, {}, {}, {});
  EXPECT_EQ(q.mean_slowdown, 0.0);
  EXPECT_EQ(q.jain_fairness, 0.0);
}

TEST(Quality, FairSchedulerScoresHigherThanStarving) {
  // Uniform slowdowns -> Jain index near 1; Jain of a run where one app is
  // starved is lower. Compare VersaSlot (redistribution + preemption)
  // against naive FCFS under stress.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 15;
  util::Rng rng(11);
  auto seq = workload::generate_sequence(config, rng);
  auto vs_run = metrics::run_single_board(
      metrics::SystemKind::kVersaBigLittle, suite, seq);
  auto q = metrics::quality(vs_run, suite, seq, params);
  EXPECT_GT(q.jain_fairness, 0.3);
}

// ---------------------------------------------------------------- patterns

TEST(Patterns, PhasedSequenceCountsAndOrder) {
  util::Rng rng(3);
  auto seq = workload::phased_sequence({{10, workload::Congestion::kStress},
                                        {5, workload::Congestion::kLoose}},
                                       rng);
  ASSERT_EQ(seq.size(), 15u);
  sim::SimTime prev = -1;
  for (const auto& a : seq) {
    EXPECT_GT(a.arrival, prev);
    prev = a.arrival;
  }
  // Loose phase spreads arrivals at 5 s; stress at <= 200 ms.
  EXPECT_LE(seq[9].arrival, sim::ms(2000));
  EXPECT_GE(seq[14].arrival - seq[10].arrival, sim::seconds(4.0) * 4);
}

TEST(Patterns, Fig8WorkloadShape) {
  auto seq = workload::fig8_long_workload(42);
  ASSERT_EQ(seq.size(), 80u);
  // Burst phase: first 30 arrivals within ~6 s; relief phase much slower.
  EXPECT_LT(seq[29].arrival, sim::seconds(7.0));
  EXPECT_GT(seq[79].arrival, sim::seconds(60.0));
}

TEST(Patterns, PoissonMeanInterval) {
  util::Rng rng(7);
  workload::ArrivalProcess poisson;
  poisson.kind = workload::ArrivalKind::kPoisson;
  poisson.rate_per_s = 10.0;
  auto times = poisson.generate(sim::seconds(200.0), rng);
  EXPECT_NEAR(static_cast<double>(times.size()), 2000.0, 200.0);
  ASSERT_GT(times.size(), 1u);
  double mean_interval = sim::to_ms(times.back() - times.front()) /
                         static_cast<double>(times.size() - 1);
  EXPECT_NEAR(mean_interval, 100.0, 10.0);
}

TEST(Patterns, SaveLoadRoundTrip) {
  util::Rng rng(9);
  workload::WorkloadConfig config;
  auto seq = workload::generate_sequence(config, rng);
  std::string path = testing::TempDir() + "/vs_workload.csv";
  workload::save_sequence(seq, path);
  auto loaded = workload::load_sequence(path, 5);
  ASSERT_EQ(loaded.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(loaded[i].spec_index, seq[i].spec_index);
    EXPECT_EQ(loaded[i].arrival, seq[i].arrival);
    EXPECT_EQ(loaded[i].batch, seq[i].batch);
  }
  std::remove(path.c_str());
}

TEST(Patterns, LoadRejectsMalformedRows) {
  std::string path = testing::TempDir() + "/vs_bad_workload.csv";
  {
    std::ofstream out(path);
    out << "spec_index,arrival_ns,batch\n1,notanumber,5\n";
  }
  EXPECT_THROW((void)workload::load_sequence(path, 5), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Patterns, LoadRejectsSpecIndexPastTheSuite) {
  std::string path = testing::TempDir() + "/vs_spec_workload.csv";
  {
    std::ofstream out(path);
    out << "spec_index,arrival_ns,batch\n4,0,5\n99,10,5\n";
  }
  try {
    (void)workload::load_sequence(path, 5);
    FAIL() << "spec_index 99 loaded into a 5-app suite";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              path + ":3: spec_index 99 outside [0, 5)");
  }
  std::remove(path.c_str());
}

TEST(Patterns, LoadRejectsMissingFile) {
  EXPECT_THROW((void)workload::load_sequence("/nonexistent_dir_xyz/w.csv", 5),
               std::runtime_error);
}

// --------------------------------------------------- migration with progress

TEST(Migration, SubmitWithProgressResumesExactly) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::GreedyPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  auto app = test::make_uniform_app("a", 3, sim::ms(5));
  int id = rt.submit_migrated(app, test::resumed_app(0, 10, 0, {10, 6, 2}),
                              runtime::AppPhase::kMigration);
  EXPECT_TRUE(rt.app(id).started);
  EXPECT_EQ(rt.app(id).units[0].state, runtime::UnitState::kFinished);
  EXPECT_EQ(rt.app(id).units[1].items_done, 6);
  sim.run();
  EXPECT_NE(test::completion(rt, id), nullptr);
  // Only the remaining items executed: (10-6) + (10-2) = 12.
  EXPECT_EQ(rt.counters().items_executed, 12);
  EXPECT_TRUE(runtime::audit(rt).ok());
}

TEST(Migration, SubmitWithFullProgressCompletesImmediately) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::ScriptedPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  auto app = test::make_uniform_app("a", 2, sim::ms(5));
  int id = rt.submit_migrated(app, test::resumed_app(0, 4, 0, {4, 4}),
                              runtime::AppPhase::kMigration);
  EXPECT_NE(test::completion(rt, id), nullptr);
  EXPECT_EQ(rt.completed().size(), 1u);
}

TEST(Migration, ExtractMigratableCarriesProgressAndBuffers) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::ScriptedPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  auto app = test::make_uniform_app("a", 3, sim::ms(5));
  rt.submit_migrated(app, test::resumed_app(0, 10, 0, {8, 3, 0}),
                     runtime::AppPhase::kMigration);
  auto migrated = rt.extract_migratable();
  ASSERT_EQ(migrated.size(), 1u);
  EXPECT_EQ(migrated[0].progress, (std::vector<int>{8, 3, 0}));
  // Intermediate buffers: (10-8)*in0 + (8-3)*in1 + (3-0)*in2 over the base
  // descriptor size.
  std::int64_t base = 4096 + 10 * 16384;
  std::int64_t buffers = (10 - 8) * 100'000 + (8 - 3) * 100'000 +
                         (3 - 0) * 100'000;
  EXPECT_EQ(migrated[0].state_bytes, base + buffers);
}

TEST(Migration, ExtractMigratableSkipsAppsHoldingSlots) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::ScriptedPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  auto app = test::make_uniform_app("a", 2, sim::ms(5));
  int id = rt.submit(app, 0, 3, 0);
  rt.request_pr(id, 0, 0);
  auto migrated = rt.extract_migratable();
  EXPECT_TRUE(migrated.empty());  // unit 0 holds slot 0
  sim.run();
  EXPECT_EQ(rt.completed().size(), 0u);  // unit 1 was never placed
  EXPECT_EQ(rt.app(id).units[0].items_done, 3);
}

// ------------------------------------------------------------ N-board pool

TEST(ClusterScale, TwoBoardsPerConfigComplete) {
  sim::Simulator sim;
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  cluster::ClusterOptions options;
  options.boards_per_config = 2;
  cluster::Cluster c(sim, suite, options);
  EXPECT_EQ(c.active_board_count(), 2);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 40;
  util::Rng rng(5);
  c.submit_sequence(workload::generate_sequence(config, rng));
  sim.run();
  EXPECT_TRUE(c.all_done());
}

TEST(ClusterScale, MoreBoardsReduceResponse) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 40;
  util::Rng rng(5);
  auto seq = workload::generate_sequence(config, rng);

  auto mean_with_boards = [&](int boards) {
    sim::Simulator sim;
    cluster::ClusterOptions options;
    options.boards_per_config = boards;
    options.enable_switching = false;
    cluster::Cluster c(sim, suite, options);
    c.submit_sequence(seq);
    sim.run();
    double sum = 0;
    for (const auto& done : c.completed()) sum += done.response_ms();
    return sum / static_cast<double>(c.completed().size());
  };
  double one = mean_with_boards(1);
  double two = mean_with_boards(2);
  EXPECT_LT(two, one * 0.8);  // parallelism must pay off under saturation
}

TEST(ClusterScale, DispatcherBalancesLoad) {
  sim::Simulator sim;
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  cluster::ClusterOptions options;
  options.boards_per_config = 2;
  options.enable_switching = false;
  cluster::Cluster c(sim, suite, options);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kRealtime;
  config.apps_per_sequence = 20;
  util::Rng rng(7);
  c.submit_sequence(workload::generate_sequence(config, rng));
  sim.run(sim::seconds(1.5));
  // Shortly after the burst both boards must hold work.
  EXPECT_GT(c.active_runtime().active_apps(), 0);
  sim.run();
  EXPECT_TRUE(c.all_done());
}

}  // namespace
}  // namespace vs
