// Tests for the deterministic parallel sweep runner (metrics/sweep.h,
// util/thread_pool.h): the thread pool itself, worker-count resolution,
// the bit-identical serial/parallel equivalence that makes sharding safe,
// a frozen-golden seed-stability regression, and the harness edge cases
// (empty/single-app sequences, time-limit expiry, exceptions in jobs).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "apps/benchmarks.h"
#include "metrics/sweep.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace vs::metrics {
namespace {

std::vector<apps::AppSpec> suite() {
  fpga::BoardParams params;
  return apps::make_suite(params);
}

std::vector<workload::Sequence> sequences(workload::Congestion congestion,
                                          int count, int apps,
                                          std::uint64_t seed) {
  workload::WorkloadConfig config;
  config.congestion = congestion;
  config.apps_per_sequence = apps;
  return workload::generate_sequences(config, count, seed);
}

/// Pools one system's per-sequence replicas the way every grid bench does:
/// SweepRunner::run, then reduce_aggregate in sequence order.
AggregateResult runner_aggregate(SystemKind kind,
                                 const std::vector<apps::AppSpec>& apps,
                                 const std::vector<workload::Sequence>& seqs,
                                 int workers) {
  std::vector<SweepJob> grid;
  for (const workload::Sequence& seq : seqs) {
    grid.push_back(SweepJob{kind, seq, {}});
  }
  return reduce_aggregate(kind, SweepRunner(workers).run(apps, grid));
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, RunsEveryJobAndStaysUsable) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
  // The pool is reusable after a barrier.
  for (int i = 0; i < 10; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 110);
}

TEST(ThreadPool, WaitRethrowsJobExceptionAndDrains) {
  util::ThreadPool pool(2);
  std::atomic<int> survivors{0};
  pool.submit([] { throw std::runtime_error("job failed"); });
  for (int i = 0; i < 20; ++i) {
    pool.submit(
        [&survivors] { survivors.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The failure neither wedged the queue nor poisoned later batches.
  EXPECT_EQ(survivors.load(), 20);
  std::atomic<int> more{0};
  pool.submit([&more] { more.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_NO_THROW(pool.wait());
  EXPECT_EQ(more.load(), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(64);
  util::parallel_for(8, hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForHandlesDegenerateShapes) {
  int calls = 0;
  util::parallel_for(4, 0, [&](std::size_t) { ++calls; });  // empty grid
  EXPECT_EQ(calls, 0);
  util::parallel_for(1, 5, [&](std::size_t) { ++calls; });  // inline serial
  EXPECT_EQ(calls, 5);
}

TEST(ThreadPool, ResolveJobsPrecedence) {
  // --jobs beats VS_JOBS beats hardware concurrency.
  ASSERT_EQ(setenv("VS_JOBS", "5", 1), 0);
  auto runner = [](std::initializer_list<const char*> flags) {
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), flags.begin(), flags.end());
    return metrics::SweepRunner(util::CliArgs(
        static_cast<int>(argv.size()), argv.data(),
        {metrics::SweepRunner::kFlags}));
  };
  EXPECT_EQ(runner({"--jobs", "3"}).jobs(), 3);
  EXPECT_EQ(runner({}).jobs(), 5);
  EXPECT_EQ(util::resolve_jobs(), 5);
  // A bad --jobs is a usage error, not a fall-through to the next rule.
  EXPECT_THROW((void)runner({"--jobs", "0"}), util::UsageError);
  EXPECT_THROW((void)runner({"--jobs", "banana"}), util::UsageError);
  // Garbage and non-positive VS_JOBS values fall through to the next rule.
  ASSERT_EQ(setenv("VS_JOBS", "0", 1), 0);
  EXPECT_GE(runner({}).jobs(), 1);
  ASSERT_EQ(setenv("VS_JOBS", "banana", 1), 0);
  EXPECT_GE(util::resolve_jobs(), 1);
  ASSERT_EQ(unsetenv("VS_JOBS"), 0);
  EXPECT_GE(util::resolve_jobs(), 1);
}

// -------------------------------------------------- determinism goldens

/// The tentpole guarantee: the parallel reduction is byte-identical to the
/// serial aggregate() for any worker count, across systems and congestion
/// levels. Doubles are compared with operator== deliberately — identical
/// event streams must produce identical bits, not merely close values.
TEST(SweepDeterminism, ParallelAggregateMatchesSerialBitwise) {
  auto apps = suite();
  for (SystemKind kind :
       {SystemKind::kNimblock, SystemKind::kVersaBigLittle}) {
    for (workload::Congestion congestion :
         {workload::Congestion::kStandard, workload::Congestion::kStress}) {
      auto seqs = sequences(congestion, 3, 10, 777);
      AggregateResult serial = aggregate(kind, apps, seqs);
      for (int workers : {1, 2, 8}) {
        AggregateResult par = runner_aggregate(kind, apps, seqs, workers);
        SCOPED_TRACE(std::string(system_name(kind)) + " / " +
                     workload::congestion_name(congestion) + " / workers=" +
                     std::to_string(workers));
        EXPECT_EQ(par.system, serial.system);
        EXPECT_EQ(par.all_responses_ms, serial.all_responses_ms);
        EXPECT_EQ(par.mean_response_ms, serial.mean_response_ms);
        EXPECT_EQ(par.p95_ms, serial.p95_ms);
        EXPECT_EQ(par.p99_ms, serial.p99_ms);
      }
    }
  }
}

TEST(SweepDeterminism, RunSweepMatchesSerialReplicas) {
  auto apps = suite();
  auto seqs = sequences(workload::Congestion::kStandard, 2, 10, 777);
  std::vector<SweepJob> grid;
  for (SystemKind kind :
       {SystemKind::kFcfs, SystemKind::kVersaBigLittle}) {
    for (const auto& seq : seqs) grid.push_back(SweepJob{kind, seq, {}});
  }
  auto parallel = SweepRunner(8).run(apps, grid);
  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    RunResult serial =
        run_single_board(grid[i].kind, apps, grid[i].sequence);
    EXPECT_EQ(parallel[i].system, serial.system);
    EXPECT_EQ(parallel[i].makespan, serial.makespan);
    EXPECT_EQ(parallel[i].completed, serial.completed);
    EXPECT_EQ(parallel[i].response_ms, serial.response_ms);
  }
}

/// Frozen goldens for one (seed, system, congestion) tuple: the Fig 5/6
/// setup at 3 sequences x 20 apps, master seed 2025, VersaSlot Big.Little,
/// Standard arrivals. Any change to RNG stream splitting in
/// workload::generate_sequences, to event ordering, or to the sweep
/// reduction order moves these values and must be deliberate (re-freeze
/// only with a changelog entry explaining why the stream moved).
TEST(SweepDeterminism, SeedStabilityGoldens) {
  auto apps = suite();
  auto seqs = sequences(workload::Congestion::kStandard, 3, 20, 2025);
  // Exercise the parallel path; the bitwise-equivalence test above ties it
  // to the serial path, so these goldens pin both at once.
  AggregateResult agg =
      runner_aggregate(SystemKind::kVersaBigLittle, apps, seqs, 4);
  ASSERT_EQ(agg.all_responses_ms.size(), 60u);
  EXPECT_DOUBLE_EQ(agg.mean_response_ms, 1058.2510233666667);
  EXPECT_DOUBLE_EQ(agg.p95_ms, 1982.5594999999989);
  EXPECT_DOUBLE_EQ(agg.p99_ms, 2596.8746331999978);
  EXPECT_DOUBLE_EQ(agg.all_responses_ms.front(), 1918.0719999999999);
  EXPECT_DOUBLE_EQ(agg.all_responses_ms.back(), 1050.597);
  // Integer-nanosecond makespan of the first replica: exact.
  RunResult r0 =
      run_single_board(SystemKind::kVersaBigLittle, apps, seqs[0]);
  EXPECT_EQ(r0.makespan, 33702643983);
}

// --------------------------------------------------------- harness edges

TEST(SweepEdgeCases, EmptyAndSingleAppSequences) {
  auto apps = suite();
  workload::Sequence empty;
  workload::Sequence single =
      sequences(workload::Congestion::kLoose, 1, 1, 42)[0];
  ASSERT_EQ(single.size(), 1u);
  std::vector<SweepJob> grid{
      SweepJob{SystemKind::kVersaBigLittle, empty, {}},
      SweepJob{SystemKind::kVersaBigLittle, single, {}},
      SweepJob{SystemKind::kBaseline, empty, {}},
  };
  auto results = SweepRunner(4).run(apps, grid);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].submitted, 0);
  EXPECT_EQ(results[0].completed, 0);
  EXPECT_TRUE(results[0].response_ms.empty());
  EXPECT_EQ(results[0].response.count, 0u);
  EXPECT_EQ(results[1].submitted, 1);
  EXPECT_EQ(results[1].completed, 1);
  EXPECT_EQ(results[1].response_ms.size(), 1u);
  EXPECT_EQ(results[2].completed, 0);
  // Aggregating over empty sequences is well-defined zeros, not a crash.
  AggregateResult agg = runner_aggregate(SystemKind::kVersaBigLittle, apps,
                                         {empty, empty}, 2);
  EXPECT_TRUE(agg.all_responses_ms.empty());
  EXPECT_EQ(agg.mean_response_ms, 0.0);
}

TEST(SweepEdgeCases, TimeLimitExpirySurfacesPartialResults) {
  auto apps = suite();
  auto seq = sequences(workload::Congestion::kStress, 1, 10, 99)[0];
  RunOptions cut;
  cut.time_limit = sim::seconds(2.0);  // well before the backlog drains
  RunResult serial =
      run_single_board(SystemKind::kVersaBigLittle, apps, seq, cut);
  ASSERT_LT(serial.completed, serial.submitted);
  auto results = SweepRunner(4).run(
      apps, {SweepJob{SystemKind::kVersaBigLittle, seq, cut}});
  ASSERT_EQ(results.size(), 1u);
  // The truncated replica surfaces the same partial results as serial.
  EXPECT_EQ(results[0].completed, serial.completed);
  EXPECT_EQ(results[0].submitted, serial.submitted);
  EXPECT_EQ(results[0].response_ms, serial.response_ms);
  EXPECT_EQ(results[0].makespan, serial.makespan);
  EXPECT_EQ(results[0].response_ms.size(),
            static_cast<std::size_t>(results[0].completed));
}

TEST(SweepEdgeCases, JobExceptionPropagatesAfterPoolDrains) {
  SweepRunner runner(4);
  std::atomic<int> completed{0};
  // The lowest-index failure wins deterministically, regardless of which
  // worker hits its exception first; surviving jobs still run.
  try {
    (void)runner.map<int>(8, [&](std::size_t i) -> int {
      if (i == 3) throw std::logic_error("replica 3");
      if (i == 5) throw std::runtime_error("replica 5");
      completed.fetch_add(1, std::memory_order_relaxed);
      return static_cast<int>(i);
    });
    FAIL() << "expected the sweep to rethrow";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "replica 3");
  }
  EXPECT_EQ(completed.load(), 6);
  // The runner stays usable: the pool drained instead of deadlocking.
  auto ok = runner.map<int>(
      4, [](std::size_t i) { return static_cast<int>(i) * 2; });
  EXPECT_EQ(ok, (std::vector<int>{0, 2, 4, 6}));
}

TEST(SweepEdgeCases, JobLogsReachStderrInJobOrderAtAnyWorkerCount) {
  // Jobs log two lines each and finish out of order (later jobs do less
  // work); one throws after logging. Whatever the worker count, stderr is
  // every job's lines in job order, the failed job's included, and the
  // lowest-index error is rethrown after.
  auto sweep = [](int workers) {
    testing::internal::CaptureStderr();
    try {
      (void)SweepRunner(workers).map<int>(12, [](std::size_t i) -> int {
        VS_WARN << "job " << i << " starts";
        volatile std::uint64_t spin = 0;
        for (std::uint64_t k = 0; k < (12 - i) * 20000; ++k) spin = spin + k;
        if (i == 7) throw std::runtime_error("job 7");
        VS_WARN << "job " << i << " done";
        return static_cast<int>(i);
      });
      ADD_FAILURE() << "expected the sweep to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 7");
    }
    return testing::internal::GetCapturedStderr();
  };
  std::string expected;
  for (int i = 0; i < 12; ++i) {
    expected += "[WARN ] job " + std::to_string(i) + " starts\n";
    if (i != 7) expected += "[WARN ] job " + std::to_string(i) + " done\n";
  }
  EXPECT_EQ(sweep(1), expected);
  EXPECT_EQ(sweep(4), expected);
}

TEST(SweepEdgeCases, InvalidSystemKindRethrownFromReplica) {
  auto apps = suite();
  auto seq = sequences(workload::Congestion::kLoose, 1, 2, 7)[0];
  std::vector<SweepJob> grid{
      SweepJob{SystemKind::kVersaBigLittle, seq, {}},
      SweepJob{static_cast<SystemKind>(99), seq, {}},
  };
  EXPECT_THROW((void)SweepRunner(2).run(apps, grid), std::invalid_argument);
}

}  // namespace
}  // namespace vs::metrics
