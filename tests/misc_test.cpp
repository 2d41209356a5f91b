// Remaining-coverage tests: logging, bitstream-key uniqueness, fabric
// overrides in the harness, forced bundle modes, and trace span ordering.
#include <gtest/gtest.h>

#include <set>

#include "apps/benchmarks.h"
#include "apps/bundling.h"
#include "metrics/experiment.h"
#include "metrics/quality.h"
#include "obs/trace_hub.h"
#include "runtime/board_runtime.h"
#include "util/log.h"
#include "workload/generator.h"

namespace vs {
namespace {

TEST(Log, LevelGatesOutput) {
  util::LogLevel before = util::Log::level();
  util::Log::set_level(util::LogLevel::kError);
  EXPECT_EQ(util::Log::level(), util::LogLevel::kError);
  // Macro below must not evaluate its stream when filtered.
  int evaluated = 0;
  VS_DEBUG << "never " << ++evaluated;
  EXPECT_EQ(evaluated, 0);
  util::Log::set_level(before);
}

TEST(BitstreamKeys, UniquePerSpecUnitAndSlot) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  std::set<fpga::BitstreamKey> keys;
  int count = 0;
  std::vector<apps::UnitSpec> bundles;
  for (std::size_t s = 0; s < suite.size(); ++s) {
    for (const apps::UnitSpec& u : apps::make_little_units(suite[s])) {
      for (int slot = 0; slot < 8; ++slot) {
        keys.insert(
            runtime::unit_bitstream_key(static_cast<int>(s), u, slot));
        ++count;
      }
    }
    apps::make_big_units(bundles, suite[s], 17, params);
    for (const apps::UnitSpec& u : bundles) {
      for (int slot = 0; slot < 2; ++slot) {
        keys.insert(
            runtime::unit_bitstream_key(static_cast<int>(s), u, slot));
        ++count;
      }
    }
  }
  EXPECT_EQ(static_cast<int>(keys.size()), count);  // no collisions
}

TEST(BitstreamKeys, SerialAndParallelVariantsDiffer) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  std::vector<apps::UnitSpec> parallel;
  std::vector<apps::UnitSpec> serial;
  apps::make_big_units(parallel, suite[1], 17, params, {}, 3,
                       apps::BundleMode::kParallel);
  apps::make_big_units(serial, suite[1], 17, params, {}, 3,
                       apps::BundleMode::kSerial);
  EXPECT_NE(runtime::unit_bitstream_key(1, parallel[0], 0),
            runtime::unit_bitstream_key(1, serial[0], 0));
}

TEST(ForcedMode, AppliesToMultiTaskBundlesOnly) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  // 3DR (3 tasks) with bundle_size 2 -> one pair + one single.
  std::vector<apps::UnitSpec> units;
  apps::make_big_units(units, suite[0], 17, params, {}, 2,
                       apps::BundleMode::kSerial);
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0].mode, apps::BundleMode::kSerial);
  EXPECT_EQ(units[1].mode, apps::BundleMode::kSingle);  // not forced
}

TEST(ForcedMode, SerialBundleLatencyIsSumOfTasks) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  std::vector<apps::UnitSpec> serial;
  apps::make_big_units(serial, suite[0], 17, params, {}, 3,
                       apps::BundleMode::kSerial);
  ASSERT_EQ(serial.size(), 1u);
  EXPECT_EQ(serial[0].item_latency, suite[0].item_latency_sum());
  EXPECT_EQ(serial[0].fill_latency, 0);
}

TEST(Harness, FabricOverrideIsHonoured) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.apps_per_sequence = 4;
  util::Rng rng(3);
  auto seq = workload::generate_sequence(config, rng);
  metrics::RunOptions options;
  options.fabric = fpga::FabricConfig::custom(3, 2);
  auto r = metrics::run_single_board(metrics::SystemKind::kVersaBigLittle,
                                     suite, seq, options);
  EXPECT_EQ(r.completed, 4);
}

TEST(Harness, ForcedSerialIsSlowerOnBalancedBundles) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.apps_per_sequence = 8;
  config.congestion = workload::Congestion::kStress;
  util::Rng rng(5);
  auto seq = workload::generate_sequence(config, rng);
  metrics::RunOptions serial;
  serial.vs_options.forced_bundle_mode = apps::BundleMode::kSerial;
  metrics::RunOptions autosel;
  auto r_serial = metrics::run_single_board(
      metrics::SystemKind::kVersaBigLittle, suite, seq, serial);
  auto r_auto = metrics::run_single_board(
      metrics::SystemKind::kVersaBigLittle, suite, seq, autosel);
  EXPECT_LT(r_auto.response.mean, r_serial.response.mean);
}

TEST(Trace, SpansAreWithinRunBounds) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.apps_per_sequence = 3;
  util::Rng rng(9);
  auto seq = workload::generate_sequence(config, rng);
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::big_little(), params);
  auto policy = metrics::make_policy(metrics::SystemKind::kVersaBigLittle);
  runtime::BoardRuntime rt(board, *policy);
  obs::ClusterTraceHub hub;
  hub.enable_trace();
  obs::TraceChannel& spans = hub.channel(board.name());
  rt.bind_observability(spans);
  for (const auto& a : seq) {
    sim.schedule_at(a.arrival, [&rt, &suite, a] {
      rt.submit(suite[static_cast<std::size_t>(a.spec_index)], a.spec_index,
                a.batch, a.arrival);
    });
  }
  sim.run();
  ASSERT_FALSE(spans.spans().empty());
  for (const obs::TraceChannel::Span& s : spans.spans()) {
    EXPECT_GE(s.start, 0);
    EXPECT_LE(s.start, s.end);
    EXPECT_LE(s.end, sim.now());
    EXPECT_FALSE(spans.lane_name(s).empty());
  }
}

TEST(Quality, AloneEstimateIsLowerBoundIshOnUncontendedRun) {
  // A single app alone on the board should land within ~2x of the
  // analytic alone-estimate (the estimate ignores core/DMA overheads).
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::Sequence seq{{1, 0, 12, 0}};  // one LeNet, batch 12
  auto r = metrics::run_single_board(metrics::SystemKind::kVersaOnlyLittle,
                                     suite, seq);
  double est_ms =
      sim::to_ms(metrics::alone_estimate(suite[1], 12, params));
  ASSERT_EQ(r.completed, 1);
  EXPECT_LT(r.response_ms[0], est_ms * 2.5);
  EXPECT_GT(r.response_ms[0], est_ms * 0.3);
}

}  // namespace
}  // namespace vs
