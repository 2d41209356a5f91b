// Unit tests for the application layer: synthesis model, the benchmark
// suite, 3-in-1 bundling, and the optimal-slot-count estimator.
#include <gtest/gtest.h>

#include "apps/benchmarks.h"
#include "apps/bundling.h"
#include "apps/synthesis.h"

namespace vs::apps {
namespace {

fpga::BoardParams params_;

// --------------------------------------------------------------- Synthesis

TEST(Synthesis, QuantizesUpward) {
  SynthesisModel m;
  fpga::ResourceVector raw{2'001, 4'001, 5, 9};
  fpga::ResourceVector s = m.synthesize(raw);
  EXPECT_EQ(s.luts, 3'000);
  EXPECT_EQ(s.ffs, 8'000);
  EXPECT_EQ(s.brams, 8);
  EXPECT_EQ(s.dsps, 16);
}

TEST(Synthesis, QuantizationIsIdempotentOnGrid) {
  SynthesisModel m;
  fpga::ResourceVector on_grid{3'000, 8'000, 8, 16};
  EXPECT_EQ(m.synthesize(on_grid), on_grid);
}

TEST(Synthesis, ImplementationShrinksLogicNotMemory) {
  SynthesisModel m;
  fpga::ResourceVector s{10'000, 10'000, 10, 10};
  fpga::ResourceVector impl = m.implement(s);
  EXPECT_LT(impl.luts, s.luts);
  EXPECT_LT(impl.ffs, s.ffs);
  EXPECT_EQ(impl.brams, s.brams);  // memories do not shrink
  EXPECT_EQ(impl.dsps, s.dsps);
}

TEST(Synthesis, BundleSynthIsSumOfParts) {
  SynthesisModel m;
  std::vector<fpga::ResourceVector> parts{{100, 100, 1, 1},
                                          {200, 200, 2, 2},
                                          {300, 300, 3, 3}};
  EXPECT_EQ(m.bundle_synth(parts), (fpga::ResourceVector{600, 600, 6, 6}));
}

TEST(Synthesis, BundleImplSharesLogic) {
  SynthesisModel m;
  std::vector<fpga::ResourceVector> parts{{10'000, 10'000, 4, 8},
                                          {10'000, 10'000, 4, 8},
                                          {10'000, 10'000, 4, 8}};
  fpga::ResourceVector bundle = m.bundle_impl(parts);
  fpga::ResourceVector one = m.implement(parts[0]);
  EXPECT_LT(bundle.luts, 3 * one.luts);  // sharing saves LUTs
  EXPECT_LT(bundle.ffs, 3 * one.ffs);
  EXPECT_EQ(bundle.brams, 3 * one.brams);
}

TEST(Synthesis, PaperAnchorIcBundle) {
  // Fig 7 (right): IC tasks 1-3 bundle at ~0.98 of a Big slot in synthesis
  // and ~0.57 at implementation; individual tasks implement at ~0.41 of a
  // Little slot.
  SynthesisModel m;
  AppSpec ic = make_app(Benchmark::kIC, params_, m);
  std::vector<fpga::ResourceVector> parts{ic.tasks[0].synth_usage,
                                          ic.tasks[1].synth_usage,
                                          ic.tasks[2].synth_usage};
  double synth_frac = static_cast<double>(m.bundle_synth(parts).luts) /
                      static_cast<double>(params_.big_slot.luts);
  double impl_frac = static_cast<double>(m.bundle_impl(parts).luts) /
                     static_cast<double>(params_.big_slot.luts);
  EXPECT_NEAR(synth_frac, 0.98, 0.03);
  EXPECT_NEAR(impl_frac, 0.57, 0.04);
  double task_impl = static_cast<double>(ic.tasks[0].impl_usage.luts) /
                     static_cast<double>(params_.little_slot.luts);
  EXPECT_NEAR(task_impl, 0.41, 0.03);
}

// -------------------------------------------------------------- Benchmarks

TEST(Benchmarks, SuiteHasPaperTaskCounts) {
  auto suite = make_suite(params_);
  ASSERT_EQ(suite.size(), 5u);
  EXPECT_EQ(suite[0].name, "3DR");
  EXPECT_EQ(suite[0].task_count(), 3);
  EXPECT_EQ(suite[1].name, "LeNet");
  EXPECT_EQ(suite[1].task_count(), 6);
  EXPECT_EQ(suite[2].name, "IC");
  EXPECT_EQ(suite[2].task_count(), 6);
  EXPECT_EQ(suite[3].name, "AN");
  EXPECT_EQ(suite[3].task_count(), 6);
  EXPECT_EQ(suite[4].name, "OF");
  EXPECT_EQ(suite[4].task_count(), 9);
}

TEST(Benchmarks, EveryTaskFitsLittleSlotAtSynthesis) {
  for (const AppSpec& app : make_suite(params_)) {
    for (const TaskSpec& t : app.tasks) {
      EXPECT_TRUE(params_.little_slot.fits(t.synth_usage))
          << app.name << "." << t.name;
      EXPECT_TRUE(params_.little_slot.fits(t.impl_usage));
    }
  }
}

TEST(Benchmarks, LatenciesAndPayloadsPositive) {
  for (const AppSpec& app : make_suite(params_)) {
    for (const TaskSpec& t : app.tasks) {
      EXPECT_GT(t.item_latency, 0);
      EXPECT_GT(t.item_bytes_in, 0);
      EXPECT_GT(t.bitstream_bytes, 0);
    }
    EXPECT_GT(app.item_latency_sum(), app.max_item_latency());
  }
}

TEST(Benchmarks, TaskIndicesSequential) {
  for (const AppSpec& app : make_suite(params_)) {
    for (int i = 0; i < app.task_count(); ++i) {
      EXPECT_EQ(app.tasks[static_cast<std::size_t>(i)].index, i);
    }
  }
}

TEST(Benchmarks, NamesMatchEnum) {
  EXPECT_EQ(make_app(Benchmark::k3DR, params_).name, "3DR");
  EXPECT_EQ(make_app(Benchmark::kOF, params_).name, "OF");
}

// ---------------------------------------------------------------- Bundling

TEST(Bundling, ChooseModeParallelForLargeBatch) {
  // Balanced stages: parallel makespan Tmax(B+2) < serial 3*Tmax*B for B>1.
  std::vector<sim::SimDuration> lat{sim::ms(10), sim::ms(10), sim::ms(10)};
  EXPECT_EQ(choose_mode(lat, 10), BundleMode::kParallel);
}

TEST(Bundling, ChooseModeSerialForSkewedSmallBatch) {
  // One dominant stage, batch 1: parallel pays 3*Tmax fill for one item,
  // serial pays T1+T2+T3 < 3*Tmax.
  std::vector<sim::SimDuration> lat{sim::ms(30), sim::ms(1), sim::ms(1)};
  EXPECT_EQ(choose_mode(lat, 1), BundleMode::kSerial);
}

TEST(Bundling, ChooseModeExactBoundary) {
  // Tmax*(B+2) == sum*B  =>  parallel preferred on ties.
  // Tmax=3, sum=5 (3+1+1): parallel 3(B+2), serial 5B; equal at B=6? 3*8=24
  // vs 30 -> parallel. Construct exact tie: Tmax=2,(2,1,1) sum=4: 2(B+2) vs
  // 4B equal at B=2.
  std::vector<sim::SimDuration> lat{2, 1, 1};
  EXPECT_EQ(choose_mode(lat, 2), BundleMode::kParallel);  // tie -> parallel
  EXPECT_EQ(choose_mode(lat, 1), BundleMode::kSerial);    // 6 > 4
}

TEST(Bundling, SingleTaskIsSingleMode) {
  std::vector<sim::SimDuration> lat{sim::ms(5)};
  EXPECT_EQ(choose_mode(lat, 10), BundleMode::kSingle);
}

TEST(Bundling, LittleUnitsOnePerTask) {
  AppSpec of = make_app(Benchmark::kOF, params_);
  auto units = make_little_units(of);
  ASSERT_EQ(units.size(), 9u);
  for (std::size_t i = 0; i < units.size(); ++i) {
    EXPECT_EQ(units[i].first_task, static_cast<int>(i));
    EXPECT_EQ(units[i].last_task, static_cast<int>(i));
    EXPECT_EQ(units[i].slot_kind, fpga::SlotKind::kLittle);
    EXPECT_EQ(units[i].mode, BundleMode::kSingle);
    EXPECT_EQ(units[i].item_latency,
              of.tasks[i].item_latency);
    EXPECT_EQ(units[i].fill_latency, 0);
  }
}

TEST(Bundling, BigUnitsGroupByThree) {
  AppSpec of = make_app(Benchmark::kOF, params_);
  std::vector<UnitSpec> units;
  make_big_units(units, of, /*batch=*/10, params_);
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0].first_task, 0);
  EXPECT_EQ(units[0].last_task, 2);
  EXPECT_EQ(units[2].first_task, 6);
  EXPECT_EQ(units[2].last_task, 8);
  for (const UnitSpec& u : units) {
    EXPECT_EQ(u.slot_kind, fpga::SlotKind::kBig);
    EXPECT_EQ(u.task_count(), 3);
    EXPECT_EQ(u.bitstream_bytes, params_.big_bitstream_bytes);
  }
}

TEST(Bundling, BigUnitsHandleRemainder) {
  AppSpec a3 = make_app(Benchmark::k3DR, params_);
  std::vector<UnitSpec> pairs;
  make_big_units(pairs, a3, 10, params_, {}, /*bundle_size=*/2);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].task_count(), 2);
  EXPECT_EQ(pairs[1].task_count(), 1);
  EXPECT_EQ(pairs[1].mode, BundleMode::kSingle);
}

TEST(Bundling, ParallelBundleLatencyModel) {
  AppSpec a3 = make_app(Benchmark::k3DR, params_);
  std::vector<UnitSpec> units;
  make_big_units(units, a3, /*batch=*/20, params_);
  ASSERT_EQ(units.size(), 1u);
  const UnitSpec& u = units[0];
  EXPECT_EQ(u.mode, BundleMode::kParallel);
  EXPECT_EQ(u.item_latency, a3.max_item_latency());
  EXPECT_EQ(u.fill_latency, 2 * a3.max_item_latency());
  // Total makespan = fill + B*period = Tmax*(B+2) — the paper's formula.
  sim::SimDuration makespan = u.fill_latency + 20 * u.item_latency;
  EXPECT_EQ(makespan, a3.max_item_latency() * 22);
}

TEST(Bundling, SerialBundleLatencyModel) {
  // Force serial by batch=1 with skewed stages: build a synthetic app.
  AppSpec app;
  app.name = "skew";
  for (int i = 0; i < 3; ++i) {
    TaskSpec t;
    t.index = i;
    t.name = "t" + std::to_string(i);
    t.synth_usage = {1000, 1000, 1, 1};
    t.impl_usage = {600, 600, 1, 1};
    t.item_latency = i == 0 ? sim::ms(30) : sim::ms(1);
    t.item_bytes_in = 1000;
    t.item_bytes_out = 500;
    t.bitstream_bytes = params_.little_bitstream_bytes;
    app.tasks.push_back(t);
  }
  std::vector<UnitSpec> units;
  make_big_units(units, app, /*batch=*/1, params_);
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0].mode, BundleMode::kSerial);
  EXPECT_EQ(units[0].item_latency, sim::ms(32));
  EXPECT_EQ(units[0].fill_latency, 0);
}

TEST(Bundling, CanBundleSuite) {
  // The whole paper suite is bundleable into Big slots (that is the point
  // of the calibrated synthesis model).
  for (const AppSpec& app : make_suite(params_)) {
    EXPECT_TRUE(can_bundle(app, params_)) << app.name;
  }
}

TEST(Bundling, CannotBundleOversizedTasks) {
  AppSpec app;
  app.name = "huge";
  for (int i = 0; i < 3; ++i) {
    TaskSpec t;
    t.index = i;
    t.synth_usage = params_.little_slot;  // each task fills a Little slot
    t.impl_usage = params_.little_slot;   // no implementation shrink
    t.item_latency = sim::ms(1);
    app.tasks.push_back(t);
  }
  // 3 full Little slots exceed one Big slot (2x Little) at implementation.
  EXPECT_FALSE(can_bundle(app, params_));
}

TEST(Bundling, CannotBundleSingleTask) {
  AppSpec app;
  app.name = "one";
  TaskSpec t;
  t.index = 0;
  t.synth_usage = {100, 100, 1, 1};
  t.impl_usage = {60, 60, 1, 1};
  t.item_latency = sim::ms(1);
  app.tasks.push_back(t);
  EXPECT_FALSE(can_bundle(app, params_));
}

TEST(Bundling, OptimalBigSlotsIsBundleCount) {
  auto suite = make_suite(params_);
  EXPECT_EQ(optimal_big_slots(suite[0]), 1);  // 3 tasks
  EXPECT_EQ(optimal_big_slots(suite[1]), 2);  // 6 tasks
  EXPECT_EQ(optimal_big_slots(suite[4]), 3);  // 9 tasks
  EXPECT_EQ(optimal_big_slots(suite[4], 4), 3);  // ceil(9/4)
}

TEST(Bundling, OptimalLittleSlotsWithinBounds) {
  for (const AppSpec& app : make_suite(params_)) {
    for (int batch : {5, 17, 30}) {
      int k = optimal_little_slots(app, batch, params_, 8);
      EXPECT_GE(k, 1) << app.name;
      EXPECT_LE(k, std::min(app.task_count(), 8)) << app.name;
    }
  }
}

TEST(Bundling, OptimalLittleSlotsRespectsMaxSlots) {
  AppSpec of = make_app(Benchmark::kOF, params_);
  EXPECT_LE(optimal_little_slots(of, 20, params_, 2), 2);
  EXPECT_EQ(optimal_little_slots(of, 20, params_, 1), 1);
}

TEST(Bundling, EstimateMakespanDecreasesWithSlots) {
  AppSpec lenet = make_app(Benchmark::kLeNet, params_);
  sim::SimDuration k1 = estimate_little_makespan(lenet, 20, 1, params_);
  sim::SimDuration k6 = estimate_little_makespan(lenet, 20, 6, params_);
  EXPECT_GT(k1, k6);
}

TEST(Bundling, EstimateMakespanGrowsWithBatch) {
  AppSpec lenet = make_app(Benchmark::kLeNet, params_);
  EXPECT_LT(estimate_little_makespan(lenet, 5, 3, params_),
            estimate_little_makespan(lenet, 30, 3, params_));
}

TEST(Bundling, ModeToString) {
  EXPECT_STREQ(to_string(BundleMode::kSerial), "serial");
  EXPECT_STREQ(to_string(BundleMode::kParallel), "parallel");
  EXPECT_STREQ(to_string(BundleMode::kSingle), "single");
}

}  // namespace
}  // namespace vs::apps
