// Property-based tests: randomised inputs checked against reference models
// and closed-form properties, parameterised over seeds (TEST_P sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "apps/bundling.h"
#include "apps/offline_flow.h"
#include "core/dswitch.h"
#include "metrics/sweep.h"
#include "obs/trace_hub.h"
#include "sim/event_queue.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/stats.h"

namespace vs {
namespace {

class Seeded : public ::testing::TestWithParam<std::uint64_t> {};

// ----------------------------------------------------- event queue vs model

TEST_P(Seeded, EventQueueMatchesReferenceModel) {
  util::Rng rng(GetParam());
  sim::EventQueue queue;
  // Reference: ordered multimap (time, seq) -> id, mirroring FIFO-at-time.
  std::map<std::pair<sim::SimTime, sim::EventId>, sim::EventId> model;
  std::set<sim::EventId> cancelled;
  std::vector<sim::EventId> fired;

  std::vector<sim::EventId> live_ids;
  for (int step = 0; step < 2000; ++step) {
    double action = rng.uniform01();
    if (action < 0.55) {
      auto t = rng.uniform_int(0, 1000);
      sim::EventId id = queue.schedule(t, [&fired, step] {
        fired.push_back(static_cast<sim::EventId>(step));
      });
      model.emplace(std::make_pair(t, id), id);
      live_ids.push_back(id);
    } else if (action < 0.7 && !live_ids.empty()) {
      std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live_ids.size()) - 1));
      sim::EventId id = live_ids[pick];
      queue.cancel(id);
      cancelled.insert(id);
      for (auto it = model.begin(); it != model.end(); ++it) {
        if (it->second == id) {
          model.erase(it);
          break;
        }
      }
    } else if (!queue.empty()) {
      ASSERT_FALSE(model.empty());
      auto expected = model.begin();
      EXPECT_EQ(test::fire_next(queue), expected->first.first);
      model.erase(expected);
    }
  }
  // Drain: remaining pops must follow model order exactly.
  while (!queue.empty()) {
    ASSERT_FALSE(model.empty());
    EXPECT_EQ(test::fire_next(queue), model.begin()->first.first);
    model.erase(model.begin());
  }
  EXPECT_TRUE(model.empty());
}

// -------------------------------------------------------- stats vs two-pass

TEST_P(Seeded, RunningStatsMatchesTwoPass) {
  util::Rng rng(GetParam() ^ 0x5757);
  std::vector<double> values;
  util::RunningStats stats;
  int n = static_cast<int>(rng.uniform_int(1, 500));
  for (int i = 0; i < n; ++i) {
    double v = rng.uniform_real(-1e4, 1e4);
    values.push_back(v);
    stats.add(v);
  }
  double mean = 0;
  for (double v : values) mean += v;
  mean /= static_cast<double>(values.size());
  double m2 = 0;
  for (double v : values) m2 += (v - mean) * (v - mean);
  EXPECT_NEAR(stats.mean(), mean, 1e-6);
  EXPECT_NEAR(stats.variance(), m2 / static_cast<double>(values.size()),
              1e-4);
  EXPECT_EQ(stats.min(), *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(stats.max(), *std::max_element(values.begin(), values.end()));
}

TEST_P(Seeded, MergedStatsEqualPooledStats) {
  // Per-sequence results merge the way the grid benches merge them
  // (metrics::reduce_aggregate): the merged statistics equal those of the
  // pooled sample, however it was split.
  util::Rng rng(GetParam() ^ 0xabcdef);
  std::vector<double> pooled;
  std::vector<metrics::RunResult> parts(4);
  for (int i = 0; i < 400; ++i) {
    double v = rng.uniform_real(0, 1000);
    pooled.push_back(v);
    parts[static_cast<std::size_t>(rng.uniform_int(0, 3))]
        .response_ms.push_back(v);
  }
  const metrics::AggregateResult merged =
      metrics::reduce_aggregate(metrics::SystemKind::kVersaBigLittle, parts);
  const util::Summary all = util::summarize(pooled);
  EXPECT_EQ(merged.all_responses_ms.size(), pooled.size());
  EXPECT_NEAR(merged.mean_response_ms, all.mean, 1e-9);
  EXPECT_DOUBLE_EQ(merged.p95_ms, all.p95);
  EXPECT_DOUBLE_EQ(merged.p99_ms, all.p99);
}

TEST_P(Seeded, PercentileBracketsSample) {
  util::Rng rng(GetParam() ^ 0x1111);
  std::vector<double> values;
  int n = static_cast<int>(rng.uniform_int(1, 100));
  for (int i = 0; i < n; ++i) values.push_back(rng.uniform_real(0, 1000));
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    double p = util::percentile_sorted(sorted, q);
    EXPECT_GE(p, sorted.front());
    EXPECT_LE(p, sorted.back());
  }
  // Monotone in q.
  EXPECT_LE(util::percentile_sorted(sorted, 0.5),
            util::percentile_sorted(sorted, 0.95));
}

// ------------------------------------------------------ bundling criterion

TEST_P(Seeded, ChosenBundleModeMinimisesMakespan) {
  util::Rng rng(GetParam() ^ 0x33);
  for (int trial = 0; trial < 50; ++trial) {
    int g = static_cast<int>(rng.uniform_int(2, 4));
    std::vector<sim::SimDuration> lat;
    for (int i = 0; i < g; ++i) {
      lat.push_back(sim::ms(static_cast<double>(rng.uniform_int(1, 50))));
    }
    int batch = static_cast<int>(rng.uniform_int(1, 30));
    apps::BundleMode mode = apps::choose_mode(lat, batch);
    sim::SimDuration tmax = *std::max_element(lat.begin(), lat.end());
    sim::SimDuration sum = 0;
    for (auto l : lat) sum += l;
    sim::SimDuration parallel = tmax * (batch + g - 1);
    sim::SimDuration serial = sum * batch;
    if (mode == apps::BundleMode::kParallel) {
      EXPECT_LE(parallel, serial);
    } else {
      EXPECT_LT(serial, parallel);
    }
  }
}

// ------------------------------------------------------ partition properties

TEST_P(Seeded, PartitionPreservesOpsAndFits) {
  util::Rng rng(GetParam() ^ 0x99);
  apps::OfflineFlowConfig config;
  apps::KernelGraph graph{"rand", {}};
  int n = static_cast<int>(rng.uniform_int(1, 12));
  for (int i = 0; i < n; ++i) {
    apps::KernelOp op;
    op.name = "k" + std::to_string(i);
    double frac = rng.uniform_real(0.05, 0.85);
    op.raw_demand = {
        static_cast<std::int64_t>(
            frac * static_cast<double>(config.board.little_slot.luts)),
        static_cast<std::int64_t>(
            frac * 0.7 * static_cast<double>(config.board.little_slot.ffs)),
        static_cast<std::int64_t>(frac * 40),
        static_cast<std::int64_t>(frac * 80),
    };
    op.item_latency = sim::ms(static_cast<double>(rng.uniform_int(1, 10)));
    op.bytes_in = 1000;
    op.bytes_out = 500;
    graph.ops.push_back(op);
  }
  apps::FlowReport r = apps::partition(graph, config);
  // Every op assigned exactly once, in order.
  int total_ops = 0;
  for (int w : r.ops_per_task) {
    EXPECT_GE(w, 1);
    total_ops += w;
  }
  EXPECT_EQ(total_ops, n);
  // Every task fits the Little slot at synthesis and implementation.
  for (const apps::TaskSpec& t : r.app.tasks) {
    EXPECT_TRUE(config.board.little_slot.fits(t.synth_usage));
    EXPECT_TRUE(config.board.little_slot.fits(t.impl_usage));
    EXPECT_GT(t.item_latency, 0);
  }
  // Task count can never exceed op count.
  EXPECT_LE(r.task_count(), n);
}

TEST_P(Seeded, PartitionTaskCountIsMinimal) {
  // Brute-force the minimum chain-partition size for small graphs and
  // compare with the DP.
  util::Rng rng(GetParam() ^ 0xbeef);
  apps::OfflineFlowConfig config;
  apps::KernelGraph graph{"small", {}};
  int n = static_cast<int>(rng.uniform_int(1, 8));
  std::vector<double> fracs;
  for (int i = 0; i < n; ++i) {
    double frac = rng.uniform_real(0.1, 0.8);
    fracs.push_back(frac);
    apps::KernelOp op;
    op.name = "k" + std::to_string(i);
    op.raw_demand = {
        static_cast<std::int64_t>(
            frac * static_cast<double>(config.board.little_slot.luts)),
        0, 0, 0};
    op.item_latency = sim::ms(1.0);
    graph.ops.push_back(op);
  }
  apps::FlowReport r = apps::partition(graph, config);

  // Brute force over all 2^(n-1) cut masks.
  auto fits = [&](int i, int j) {
    fpga::ResourceVector raw;
    for (int k = i; k <= j; ++k) {
      raw += graph.ops[static_cast<std::size_t>(k)].raw_demand;
    }
    return config.board.little_slot.fits(config.synthesis.synthesize(raw));
  };
  int best = n + 1;
  for (int mask = 0; mask < (1 << (n - 1)); ++mask) {
    int tasks = 1, start = 0;
    bool ok = true;
    for (int i = 0; i < n && ok; ++i) {
      bool cut_after = (i < n - 1) && ((mask >> i) & 1);
      if (cut_after || i == n - 1) {
        ok = fits(start, i);
        if (cut_after) {
          ++tasks;
          start = i + 1;
        }
      }
    }
    if (ok) best = std::min(best, tasks);
  }
  EXPECT_EQ(r.task_count(), best);
}

// ---------------------------------------------------------- dswitch + misc

TEST_P(Seeded, DSwitchMonotoneAndBounded) {
  util::Rng rng(GetParam() ^ 0x77);
  for (int trial = 0; trial < 100; ++trial) {
    auto prs = rng.uniform_int(1, 50);
    auto blocked = rng.uniform_int(0, prs);
    int apps_n = static_cast<int>(rng.uniform_int(1, 30));
    auto batch = rng.uniform_int(apps_n, apps_n * 30);
    double d = core::dswitch_value(blocked, prs, apps_n, batch);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
    if (blocked < prs) {
      EXPECT_LE(d, core::dswitch_value(blocked + 1, prs, apps_n, batch));
    }
  }
}

TEST_P(Seeded, GanttRenderNeverCrashes) {
  util::Rng rng(GetParam() ^ 0x4242);
  obs::ClusterTraceHub hub;
  obs::TraceChannel& spans = hub.channel("b0");
  int n = static_cast<int>(rng.uniform_int(0, 40));
  for (int i = 0; i < n; ++i) {
    const sim::SimTime start = rng.uniform_int(0, 1'000'000);
    const sim::SimTime end = start + rng.uniform_int(0, 100'000);
    const obs::NameId lane =
        spans.lane("lane" + std::to_string(rng.uniform_int(0, 4)));
    const auto kind = static_cast<obs::SpanKind>(rng.uniform_int(0, 5));
    spans.span(start, end, lane, kind, "ev", i);
  }
  std::string out = obs::render_gantt(spans, 80);
  EXPECT_FALSE(out.empty());
  if (n > 0) {
    EXPECT_NE(out.find("lane"), std::string::npos);
  }
}

TEST_P(Seeded, RngStreamsAreUncorrelated) {
  util::Rng a(GetParam(), 1);
  util::Rng b(GetParam(), 2);
  // Crude correlation check over 1000 draws.
  double dot = 0;
  for (int i = 0; i < 1000; ++i) {
    dot += (a.uniform01() - 0.5) * (b.uniform01() - 0.5);
  }
  EXPECT_LT(std::abs(dot / 1000.0), 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Seeded,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u));

}  // namespace
}  // namespace vs
