// Tests for the periodic DDR checkpointing subsystem: snapshot semantics on
// the BoardRuntime (restored progress never exceeds true progress, re-run
// window bounded by one interval), checkpoint-restored evacuation through
// the cluster recovery path, byte-identity of checkpoint-free runs, serial
// vs parallel vs instrumented determinism, and a frozen seed golden for a
// checkpointed-recovery cluster run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "apps/benchmarks.h"
#include "cluster/cluster.h"
#include "faults/scenario.h"
#include "fpga/board.h"
#include "metrics/experiment.h"
#include "metrics/sweep.h"
#include "obs/telemetry.h"
#include "runtime/board_runtime.h"
#include "runtime/checkpoint.h"
#include "runtime/invariants.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "workload/generator.h"

namespace vs {
namespace {

// Expands an app's live per-unit progress to the per-task vector the
// checkpoint and migration paths use (each task covered by a unit carries
// the unit's completed item count).
std::vector<int> expand_progress(const runtime::AppRun& app) {
  std::vector<int> out;
  for (const runtime::UnitRun& u : app.units) {
    for (int t = 0; t < u.spec.task_count(); ++t) out.push_back(u.items_done);
  }
  return out;
}

// Cluster options with the two scripted crashes the checkpoint bench uses:
// the initially active Only.Little board at 2 s and the Big.Little
// failover board at 10 s (the crash that catches bundles mid-batch).
cluster::ClusterOptions checkpointed_options(bool enable_checkpoint) {
  cluster::ClusterOptions options;
  options.faults.seed = 404;
  options.faults.timeline.push_back(
      {sim::seconds(2.0), faults::FaultKind::kBoardCrash, 0, -1});
  options.faults.timeline.push_back(
      {sim::seconds(10.0), faults::FaultKind::kBoardCrash, 1, -1});
  options.recovery.enable_recovery = true;
  options.checkpoint.enabled = enable_checkpoint;
  return options;
}

workload::Sequence stress_sequence(std::uint64_t seed, int n_apps = 20) {
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = n_apps;
  util::Rng rng(seed);
  return workload::generate_sequence(config, rng);
}

// ------------------------------------------------------ CheckpointProperty

TEST(CheckpointProperty, RestoredProgressBoundedByTruthAndInterval) {
  // Randomised seeds x intervals x crash times on a Big.Little board under
  // the VersaSlot policy (so Big-slot bundles form). At the crash, every
  // checkpoint-restored descriptor must carry progress element-wise <= the
  // app's true progress, monotone non-increasing along the pipeline, and a
  // snapshot no older than one interval; every live-evacuable descriptor
  // must carry exactly the true progress.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  int total_checkpointed = 0;
  int total_evacuable = 0;
  const double crash_s[] = {1.3, 2.0, 2.9};
  int cell = 0;
  for (std::uint64_t seed : {11, 23, 47}) {
    for (double interval_ms : {5.0, 17.0, 40.0}) {
      auto seq = stress_sequence(seed, 12);
      sim::Simulator sim;
      fpga::Board board(sim, "b0", fpga::FabricConfig::big_little(), params);
      auto policy = metrics::make_policy(metrics::SystemKind::kVersaBigLittle);
      runtime::BoardRuntime rt(board, *policy);
      runtime::CheckpointPolicy ckpt;
      ckpt.enabled = true;
      ckpt.interval = sim::ms(interval_ms);
      rt.enable_checkpoints(ckpt);
      for (const auto& a : seq) {
        sim.schedule_at(a.arrival, [&rt, &suite, a] {
          if (rt.crashed()) return;
          rt.submit(suite[static_cast<std::size_t>(a.spec_index)],
                    a.spec_index, a.batch, a.arrival);
        });
      }
      const sim::SimTime crash_at = sim::seconds(crash_s[cell++ % 3]);
      while (sim.step() && sim.now() < crash_at) {
      }
      const int active_before = rt.active_apps();
      ASSERT_GT(active_before, 0) << "seed " << seed;

      // True progress at the instant of the crash, keyed by identity.
      // (Keys can collide when two apps of one spec share an arrival;
      // ambiguous keys are skipped rather than guessed.)
      std::map<std::pair<int, sim::SimTime>, std::vector<std::vector<int>>>
          truth;
      for (int id : rt.live_ids()) {
        const runtime::AppRun& a = rt.app(id);
        truth[{a.spec_index, a.arrival}].push_back(expand_progress(a));
      }
      auto lookup =
          [&](const runtime::BoardRuntime::MigratedApp& m)
          -> const std::vector<int>* {
        auto it = truth.find({m.spec_index, m.arrival});
        if (it == truth.end() || it->second.size() != 1) return nullptr;
        return &it->second.front();
      };

      auto report = rt.crash();
      const sim::SimTime now = sim.now();
      EXPECT_EQ(static_cast<int>(report.evacuable.size() +
                                 report.checkpointed.size() +
                                 report.killed.size()),
                active_before);
      total_checkpointed += static_cast<int>(report.checkpointed.size());
      total_evacuable += static_cast<int>(report.evacuable.size());
      for (const auto& m : report.checkpointed) {
        EXPECT_TRUE(m.from_checkpoint);
        if (const std::vector<int>* live = lookup(m)) {
          ASSERT_EQ(m.progress.size(), live->size());
          for (std::size_t i = 0; i < m.progress.size(); ++i) {
            // Restored progress never exceeds true progress at the crash.
            EXPECT_LE(m.progress[i], (*live)[i])
                << "seed " << seed << " interval " << interval_ms
                << " task " << i;
          }
        }
        for (std::size_t i = 0; i + 1 < m.progress.size(); ++i) {
          EXPECT_GE(m.progress[i], m.progress[i + 1]);  // pipeline order
        }
        // Re-run window: the snapshot is at most one interval old.
        ASSERT_GE(m.ckpt_time, 0);
        EXPECT_LE(now - m.ckpt_time, ckpt.interval)
            << "seed " << seed << " interval " << interval_ms;
        EXPECT_GT(m.state_bytes, 0);
      }
      for (const auto& m : report.evacuable) {
        EXPECT_FALSE(m.from_checkpoint);
        if (m.progress.empty()) continue;  // unstarted: rides along empty
        if (const std::vector<int>* live = lookup(m)) {
          EXPECT_EQ(m.progress, *live);  // live state, not a snapshot
        }
      }
      EXPECT_GT(rt.counters().ckpt_snapshots, 0);
      EXPECT_GT(rt.counters().ckpt_bytes, 0);
    }
  }
  // The grid must actually exercise both partitions.
  EXPECT_GT(total_checkpointed, 0);
  EXPECT_GT(total_evacuable, 0);
}

TEST(CheckpointProperty, RestoredAppsResumeAndComplete) {
  // Crash one board mid-run, replay every descriptor onto a fresh board via
  // the same packing the cluster uses; everything must complete.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = stress_sequence(7, 10);
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::big_little(), params);
  auto policy = metrics::make_policy(metrics::SystemKind::kVersaBigLittle);
  runtime::BoardRuntime rt(board, *policy);
  runtime::CheckpointPolicy ckpt;
  ckpt.enabled = true;
  rt.enable_checkpoints(ckpt);
  int submitted = 0;
  for (const auto& a : seq) {
    sim.schedule_at(a.arrival, [&rt, &suite, a] {
      if (rt.crashed()) return;
      rt.submit(suite[static_cast<std::size_t>(a.spec_index)], a.spec_index,
                a.batch, a.arrival);
    });
    ++submitted;
  }
  const sim::SimTime crash_at = sim::seconds(2.0);
  while (sim.step() && sim.now() < crash_at) {
  }
  const int done_before = static_cast<int>(rt.completed().size());
  auto report = rt.crash();
  sim.run();  // drain stale events of the dead epoch

  fpga::Board board2(sim, "b1", fpga::FabricConfig::big_little(), params);
  auto policy2 = metrics::make_policy(metrics::SystemKind::kVersaBigLittle);
  runtime::BoardRuntime rt2(board2, *policy2);
  auto replay = [&](const runtime::BoardRuntime::MigratedApp& m) {
    rt2.submit_migrated(suite[static_cast<std::size_t>(m.spec_index)], m,
                        runtime::AppPhase::kRecovery);
  };
  for (const auto& m : report.evacuable) replay(m);
  for (const auto& m : report.checkpointed) replay(m);
  for (const auto& m : report.killed) replay(m);
  sim.run();
  auto audit_report = runtime::audit(rt2);
  EXPECT_TRUE(audit_report.ok()) << audit_report.to_string();
  EXPECT_EQ(done_before + static_cast<int>(rt2.completed().size()),
            submitted);
}

TEST(CheckpointProperty, DisabledPolicyNeverSnapshotsOrPartitions) {
  // Without an active policy the crash report degenerates to the two-way
  // partition and no checkpoint work is ever scheduled.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = stress_sequence(3, 8);
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::big_little(), params);
  auto policy = metrics::make_policy(metrics::SystemKind::kVersaBigLittle);
  runtime::BoardRuntime rt(board, *policy);
  for (const auto& a : seq) {
    sim.schedule_at(a.arrival, [&rt, &suite, a] {
      if (rt.crashed()) return;
      rt.submit(suite[static_cast<std::size_t>(a.spec_index)], a.spec_index,
                a.batch, a.arrival);
    });
  }
  while (sim.step() && sim.now() < sim::ms(60.0)) {
  }
  auto report = rt.crash();
  EXPECT_TRUE(report.checkpointed.empty());
  EXPECT_EQ(rt.counters().ckpt_snapshots, 0);
  EXPECT_EQ(rt.counters().ckpt_bytes, 0);
}

// ---------------------------------------------------- CheckpointRecovery

TEST(CheckpointRecovery, BundledAppsRestoreAndEveryAppCompletes) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = stress_sequence(41);
  auto result =
      metrics::run_cluster(suite, seq, checkpointed_options(true));
  EXPECT_EQ(result.completed, result.submitted);
  EXPECT_EQ(result.recovery.apps_lost, 0);
  EXPECT_EQ(result.recovery.boards_crashed, 2);
  // The Big.Little crash catches bundled work that only a snapshot saves.
  EXPECT_GT(result.recovery.apps_checkpoint_restored, 0);
}

TEST(CheckpointRecovery, KillRestartForfeitsSnapshotsToo) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = stress_sequence(41);
  cluster::ClusterOptions options = checkpointed_options(true);
  options.recovery.kill_restart = true;
  auto result = metrics::run_cluster(suite, seq, options);
  EXPECT_EQ(result.completed, result.submitted);
  EXPECT_EQ(result.recovery.apps_checkpoint_restored, 0);
  EXPECT_EQ(result.recovery.apps_evacuated, 0);
  EXPECT_GT(result.recovery.apps_restarted, 0);
}

// ---------------------------------------------------- CheckpointDisabled

TEST(CheckpointDisabled, DisabledPolicyIsByteIdenticalToPlainOptions) {
  // checkpoint.enabled = false (even with a non-default interval) must not
  // perturb a faulty cluster run in any way.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = stress_sequence(41);
  auto plain = metrics::run_cluster(suite, seq, checkpointed_options(false));
  cluster::ClusterOptions options = checkpointed_options(false);
  options.checkpoint.interval = sim::ms(1.0);  // inert while disabled
  auto tweaked = metrics::run_cluster(suite, seq, options);
  ASSERT_EQ(tweaked.response_ms.size(), plain.response_ms.size());
  for (std::size_t i = 0; i < plain.response_ms.size(); ++i) {
    EXPECT_EQ(tweaked.response_ms[i], plain.response_ms[i]) << i;
  }
  EXPECT_EQ(tweaked.recovery.apps_evacuated, plain.recovery.apps_evacuated);
  EXPECT_EQ(tweaked.recovery.apps_checkpoint_restored, 0);
  EXPECT_EQ(plain.recovery.apps_checkpoint_restored, 0);
  EXPECT_EQ(tweaked.recovery.mttr_total, plain.recovery.mttr_total);
}

TEST(CheckpointDisabled, NoCheckpointInstrumentsRegistered) {
  // Telemetry exports of a checkpoint-free run must not even mention the
  // checkpoint instruments (byte-identity of existing exports).
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = stress_sequence(41, 10);
  obs::Telemetry telemetry;
  (void)metrics::run_cluster(suite, seq, checkpointed_options(false),
                             sim::seconds(36000.0), &telemetry);
  for (const auto& row : telemetry.registry().counters()) {
    EXPECT_EQ(row.name.rfind("vs_ckpt_", 0), std::string::npos) << row.name;
    EXPECT_NE(row.name, "vs_recovery_checkpoint_restored_apps_total");
  }
  for (const auto& row : telemetry.registry().histograms()) {
    EXPECT_EQ(row.name.rfind("vs_ckpt_", 0), std::string::npos) << row.name;
  }
}

// --------------------------------------------------- CheckpointTelemetry

TEST(CheckpointTelemetry, SnapshotAndRestoreInstrumentsExport) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = stress_sequence(41);
  obs::Telemetry telemetry;
  auto result = metrics::run_cluster(suite, seq, checkpointed_options(true),
                                     sim::seconds(36000.0), &telemetry);
  double snapshots = 0, bytes = 0, restored = 0;
  for (const auto& row : telemetry.registry().counters()) {
    if (row.name == "vs_ckpt_snapshots_total") snapshots += row.cell.value();
    if (row.name == "vs_ckpt_bytes_total") bytes += row.cell.value();
    if (row.name == "vs_recovery_checkpoint_restored_apps_total") {
      restored += row.cell.value();
    }
  }
  EXPECT_GT(snapshots, 0.0);
  EXPECT_GT(bytes, 0.0);
  EXPECT_EQ(restored,
            static_cast<double>(result.recovery.apps_checkpoint_restored));
  // Registering again finds the run's cell and adds no instrument.
  const std::size_t instruments = telemetry.registry().size();
  const obs::Histogram& window =
      telemetry.registry().histogram("vs_ckpt_rerun_window_ms", {});
  ASSERT_EQ(telemetry.registry().size(), instruments);
  EXPECT_EQ(window.count(),
            static_cast<std::uint64_t>(
                result.recovery.apps_checkpoint_restored));
  // Every observed re-run window respects the snapshot interval bound.
  EXPECT_LE(window.max(),
            sim::to_ms(checkpointed_options(true).checkpoint.interval));
}

// ------------------------------------------------- CheckpointDeterminism

TEST(CheckpointDeterminism, SerialParallelAndInstrumentedBitIdentical) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = stress_sequence(41);
  cluster::ClusterOptions options = checkpointed_options(true);
  options.faults.hazards.slot_seu_per_s = 0.3;
  options.faults.horizon = sim::seconds(30.0);

  auto serial = metrics::run_cluster(suite, seq, options);
  ASSERT_GT(serial.response_ms.size(), 0u);

  // Telemetry on/off must not perturb a checkpointed run.
  obs::Telemetry telemetry;
  auto instrumented = metrics::run_cluster(suite, seq, options,
                                           sim::seconds(36000.0), &telemetry);
  ASSERT_EQ(instrumented.response_ms.size(), serial.response_ms.size());
  for (std::size_t i = 0; i < serial.response_ms.size(); ++i) {
    EXPECT_EQ(instrumented.response_ms[i], serial.response_ms[i]) << i;
  }
  EXPECT_EQ(instrumented.recovery.apps_checkpoint_restored,
            serial.recovery.apps_checkpoint_restored);
  EXPECT_EQ(instrumented.recovery.mttr_total, serial.recovery.mttr_total);

  // Sweep-worker count must not either: 1, 2 and 8 workers all agree.
  for (int workers : {1, 2, 8}) {
    metrics::SweepRunner runner(static_cast<std::size_t>(workers));
    auto cells = runner.map<metrics::ClusterRunResult>(
        static_cast<std::size_t>(workers) + 1, [&](std::size_t) {
          return metrics::run_cluster(suite, seq, options);
        });
    for (const auto& cell : cells) {
      ASSERT_EQ(cell.response_ms.size(), serial.response_ms.size());
      for (std::size_t i = 0; i < serial.response_ms.size(); ++i) {
        EXPECT_EQ(cell.response_ms[i], serial.response_ms[i])
            << workers << " workers, app " << i;
      }
      EXPECT_EQ(cell.recovery.apps_checkpoint_restored,
                serial.recovery.apps_checkpoint_restored);
      EXPECT_EQ(cell.recovery.mttr_total, serial.recovery.mttr_total);
    }
  }
}

// ----------------------------------------------------------- DirtyMapUnit

TEST(DirtyMapUnit, GeometryMarkingAndTailAccounting) {
  runtime::DirtyMap map;
  EXPECT_FALSE(map.enabled());
  EXPECT_EQ(map.take(runtime::DirtyMap::kCheckpoint).bytes, 0);

  // 10 KiB image, 4 KiB regions: three regions, the last only 2 KiB.
  map.reset(10 * 1024, 4 * 1024);
  ASSERT_TRUE(map.enabled());
  EXPECT_EQ(map.regions(), 3);

  // A one-byte write dirties exactly its region.
  map.mark(5000, 1);
  auto d = map.peek(runtime::DirtyMap::kCheckpoint);
  EXPECT_EQ(d.regions, 1);
  EXPECT_EQ(d.bytes, 4 * 1024);

  // A write spanning a region boundary dirties both sides.
  map.mark(4 * 1024 - 10, 20);
  d = map.peek(runtime::DirtyMap::kCheckpoint);
  EXPECT_EQ(d.regions, 2);

  // The tail region is accounted at its true 2 KiB, not the granularity.
  map.mark_all();
  d = map.peek(runtime::DirtyMap::kCheckpoint);
  EXPECT_EQ(d.regions, 3);
  EXPECT_EQ(d.bytes, 10 * 1024);
}

TEST(DirtyMapUnit, PlanesDrainIndependently) {
  runtime::DirtyMap map;
  map.reset(64 * 1024, 8 * 1024);
  map.mark(0, 1);

  // Draining the checkpoint plane must not shorten the migration plane.
  auto ckpt = map.take(runtime::DirtyMap::kCheckpoint);
  EXPECT_EQ(ckpt.regions, 1);
  EXPECT_EQ(map.peek(runtime::DirtyMap::kCheckpoint).regions, 0);
  EXPECT_EQ(map.peek(runtime::DirtyMap::kMigration).regions, 1);

  // New writes re-dirty both planes; the migration drain sees old + new.
  map.mark(60 * 1024, 1);
  auto mig = map.take(runtime::DirtyMap::kMigration);
  EXPECT_EQ(mig.regions, 2);
  EXPECT_EQ(map.peek(runtime::DirtyMap::kMigration).regions, 0);
  // ... while the checkpoint plane saw only the new write.
  EXPECT_EQ(map.peek(runtime::DirtyMap::kCheckpoint).regions, 1);
}

TEST(DirtyMapUnit, ClampsOutOfRangeMarks) {
  runtime::DirtyMap map;
  map.reset(16 * 1024, 4 * 1024);
  map.mark(-100, 50);            // entirely before the image
  map.mark(20 * 1024, 4096);     // entirely past the image
  map.mark(1000, 0);             // empty
  EXPECT_EQ(map.peek(runtime::DirtyMap::kCheckpoint).regions, 0);
  map.mark(15 * 1024, 1 << 20);  // straddles the end: clamped to the tail
  EXPECT_EQ(map.peek(runtime::DirtyMap::kCheckpoint).regions, 1);
}

/// The dirty regions of `plane`, read through the public interface: a
/// region is dirty when marking one byte of it adds no region.
std::vector<bool> dirty_regions(const runtime::DirtyMap& map,
                                runtime::DirtyMap::Plane plane) {
  std::vector<bool> dirty(static_cast<std::size_t>(map.regions()));
  const int base = map.peek(plane).regions;
  for (int r = 0; r < map.regions(); ++r) {
    runtime::DirtyMap probe = map;
    probe.mark(static_cast<std::int64_t>(r) * map.granularity(), 1);
    dirty[static_cast<std::size_t>(r)] = probe.peek(plane).regions == base;
  }
  return dirty;
}

TEST(DirtyMapUnit, WordMasksMatchAPerRegionReference) {
  // 300 regions of 64 bytes, the last one 17 bytes: five words of bits.
  // Each mark, of every shape (inside one word, across words, whole words,
  // clamped at either end, ending in the tail region), must set in both
  // planes exactly the regions a per-region loop sets, and each drain must
  // account the partial tail at its true size.
  constexpr std::int64_t kGran = 64;
  constexpr int kRegions = 300;
  constexpr std::int64_t kState = (kRegions - 1) * kGran + 17;
  runtime::DirtyMap map;
  map.reset(kState, kGran);
  ASSERT_EQ(map.regions(), kRegions);
  std::vector<bool> ref[2] = {std::vector<bool>(kRegions),
                              std::vector<bool>(kRegions)};
  auto reference_mark = [&](std::int64_t offset, std::int64_t len) {
    if (len <= 0) return;
    const std::int64_t end = std::min(offset + len, kState);
    for (std::int64_t r = 0; r < kRegions; ++r) {
      if (r * kGran < end && (r + 1) * kGran > offset) {
        ref[0][static_cast<std::size_t>(r)] = true;
        ref[1][static_cast<std::size_t>(r)] = true;
      }
    }
  };
  auto reference_take = [&](int plane) {
    runtime::DirtyMap::Drain d;
    for (int r = 0; r < kRegions; ++r) {
      if (!ref[plane][static_cast<std::size_t>(r)]) continue;
      ++d.regions;
      d.bytes += std::min<std::int64_t>(kGran, kState - r * kGran);
    }
    ref[plane].assign(kRegions, false);
    return d;
  };
  std::vector<std::pair<std::int64_t, std::int64_t>> marks = {
      {3 * kGran + 5, 10},             // inside one region
      {70 * kGran, 20 * kGran},        // inside one word
      {60 * kGran + 1, 10 * kGran},    // across a word boundary
      {64 * kGran, 128 * kGran},       // exactly two whole words
      {10 * kGran, 250 * kGran},       // across four words
      {-5 * kGran, 7 * kGran},         // clamped at the start
      {290 * kGran, 50 * kGran},       // clamped at the end, in the tail
      {kState - 1, 1},                 // the tail's last byte
      {kState, 10},                    // past the image
      {-10, 5},                        // before the image
      {0, kState},                     // the whole image
  };
  std::mt19937_64 rng(2025);
  for (int i = 0; i < 300; ++i) {
    const auto offset = static_cast<std::int64_t>(rng() % (kState + 400)) -
                        200;
    const std::int64_t lens[] = {1, kGran, 64 * kGran, 3 * 64 * kGran};
    const std::int64_t len =
        static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(
                                              lens[rng() % 4])) +
        (i % 5 == 0 ? 0 : 1);
    marks.emplace_back(offset, len);
  }
  for (std::size_t i = 0; i < marks.size(); ++i) {
    const auto [offset, len] = marks[i];
    map.mark(offset, len);
    reference_mark(offset, len);
    ASSERT_EQ(dirty_regions(map, runtime::DirtyMap::kCheckpoint), ref[0])
        << "mark " << i << " (" << offset << ", " << len << ")";
    ASSERT_EQ(dirty_regions(map, runtime::DirtyMap::kMigration), ref[1])
        << "mark " << i;
    if (i % 3 == 2) {
      const int plane = static_cast<int>(i / 3 % 2);
      const auto d = map.take(static_cast<runtime::DirtyMap::Plane>(plane));
      const auto want = reference_take(plane);
      EXPECT_EQ(d.regions, want.regions) << "drain after mark " << i;
      EXPECT_EQ(d.bytes, want.bytes) << "drain after mark " << i;
    }
  }
}

// -------------------------------------------------------- CheckpointDelta

cluster::ClusterOptions delta_options(std::int64_t granularity = 64 * 1024) {
  cluster::ClusterOptions options = checkpointed_options(true);
  options.checkpoint.delta = true;
  options.checkpoint.granularity = granularity;
  return options;
}

TEST(CheckpointDelta, StrictlyFewerBytesThanWholeStateAtEqualIntervals) {
  // The tentpole claim: at the same cadence, copying only dirtied regions
  // moves strictly fewer bytes than re-copying whole images, while the
  // recovery outcome (restored apps, completions) is unchanged.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = stress_sequence(41);
  auto whole = metrics::run_cluster(suite, seq, checkpointed_options(true));
  auto delta = metrics::run_cluster(suite, seq, delta_options());

  ASSERT_GT(whole.checkpoint.total_bytes(), 0);
  ASSERT_GT(delta.checkpoint.total_bytes(), 0);
  EXPECT_LT(delta.checkpoint.total_bytes(), whole.checkpoint.total_bytes());
  // Whole-state mode never writes deltas; delta mode demonstrably does.
  EXPECT_EQ(whole.checkpoint.deltas, 0);
  EXPECT_EQ(whole.checkpoint.delta_bytes, 0);
  EXPECT_GT(delta.checkpoint.deltas, 0);
  EXPECT_GT(delta.checkpoint.dirty_regions, 0);
  EXPECT_GT(delta.checkpoint.bases, 0);  // first snapshots + compactions
  // Both modes keep every app alive through both scripted crashes.
  EXPECT_EQ(delta.completed, delta.submitted);
  EXPECT_GT(delta.recovery.apps_checkpoint_restored, 0);
}

TEST(CheckpointDelta, ChainCompactsEveryCompactEvery) {
  // With a chain cap of k, between two consecutive bases of one app at
  // most k deltas accumulate; globally, deltas <= k * (bases + apps) and
  // compactions count the bases that closed a chain.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = stress_sequence(41);
  cluster::ClusterOptions options = delta_options();
  options.checkpoint.compact_every = 3;
  auto r = metrics::run_cluster(suite, seq, options);
  ASSERT_GT(r.checkpoint.deltas, 0);
  EXPECT_GT(r.checkpoint.compactions, 0);
  EXPECT_LE(r.checkpoint.compactions, r.checkpoint.bases);
  EXPECT_LE(r.checkpoint.deltas,
            static_cast<std::int64_t>(options.checkpoint.compact_every) *
                (r.checkpoint.bases + r.submitted));
}

TEST(CheckpointDelta, RestoredProgressStaysBoundedUnderDeltaMode) {
  // The crash-restore property holds unchanged in delta mode: restored
  // progress never exceeds the truth and the snapshot is at most one
  // interval old (the delta chain refreshes ckpt_time like a base does).
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = stress_sequence(23, 12);
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::big_little(), params);
  auto policy = metrics::make_policy(metrics::SystemKind::kVersaBigLittle);
  runtime::BoardRuntime rt(board, *policy);
  runtime::CheckpointPolicy ckpt;
  ckpt.enabled = true;
  ckpt.interval = sim::ms(10.0);
  ckpt.delta = true;
  ckpt.granularity = 16 * 1024;
  rt.enable_checkpoints(ckpt);
  ASSERT_TRUE(rt.dirty_tracking());
  for (const auto& a : seq) {
    sim.schedule_at(a.arrival, [&rt, &suite, a] {
      if (rt.crashed()) return;
      rt.submit(suite[static_cast<std::size_t>(a.spec_index)], a.spec_index,
                a.batch, a.arrival);
    });
  }
  while (sim.step() && sim.now() < sim::seconds(2.0)) {
  }
  std::map<std::pair<int, sim::SimTime>, std::vector<std::vector<int>>> truth;
  for (int id : rt.live_ids()) {
    const runtime::AppRun& a = rt.app(id);
    truth[{a.spec_index, a.arrival}].push_back(expand_progress(a));
  }
  auto report = rt.crash();
  const sim::SimTime now = sim.now();
  EXPECT_GT(rt.checkpoint_stats().deltas, 0);
  for (const auto& m : report.checkpointed) {
    ASSERT_GE(m.ckpt_time, 0);
    EXPECT_LE(now - m.ckpt_time, ckpt.interval);
    EXPECT_GT(m.state_bytes, 0);
    auto it = truth.find({m.spec_index, m.arrival});
    if (it == truth.end() || it->second.size() != 1) continue;
    const std::vector<int>& live = it->second.front();
    ASSERT_EQ(m.progress.size(), live.size());
    for (std::size_t i = 0; i < m.progress.size(); ++i) {
      EXPECT_LE(m.progress[i], live[i]) << "task " << i;
    }
  }
}

TEST(CheckpointDelta, SkipAccountingSplitsCleanFromEmpty) {
  // The split skip counters: "clean" skips refresh an existing snapshot,
  // "empty" skips mean nothing was ever committed. A stress run exercises
  // both, and snapshots partition exactly into bases + deltas.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = stress_sequence(41);
  obs::Telemetry telemetry;
  auto r = metrics::run_cluster(suite, seq, delta_options(),
                                sim::seconds(36000.0), &telemetry);
  EXPECT_GT(r.checkpoint.skipped_clean, 0);
  EXPECT_GT(r.checkpoint.skipped_empty, 0);
  // Snapshots partition exactly into bases + deltas, and the legacy
  // aggregate byte counter matches the per-kind accounting.
  double snapshots = 0, bytes = 0;
  for (const auto& row : telemetry.registry().counters()) {
    if (row.name == "vs_ckpt_snapshots_total") snapshots += row.cell.value();
    if (row.name == "vs_ckpt_bytes_total") bytes += row.cell.value();
  }
  EXPECT_EQ(snapshots,
            static_cast<double>(r.checkpoint.bases + r.checkpoint.deltas));
  EXPECT_EQ(bytes, static_cast<double>(r.checkpoint.total_bytes()));
}

TEST(CheckpointDelta, DeltaInstrumentsExportOnlyInDeltaMode) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = stress_sequence(41, 10);

  // Whole-state mode: no delta instruments, but the split skip counter
  // labelled by reason is present.
  obs::Telemetry whole;
  (void)metrics::run_cluster(suite, seq, checkpointed_options(true),
                             sim::seconds(36000.0), &whole);
  bool saw_skip_reason = false;
  for (const auto& row : whole.registry().counters()) {
    EXPECT_NE(row.name, "vs_ckpt_dirty_bytes_total");
    EXPECT_NE(row.name, "vs_ckpt_dirty_regions_total");
    EXPECT_NE(row.name, "vs_ckpt_deltas_total");
    EXPECT_NE(row.name, "vs_ckpt_compactions_total");
    if (row.name == "vs_ckpt_skipped_total") {
      for (const auto& [k, v] : row.labels) {
        saw_skip_reason |= (k == "reason" && (v == "clean" || v == "empty"));
      }
    }
  }
  EXPECT_TRUE(saw_skip_reason);

  // Delta mode: the dirty-delta instruments appear and agree with the
  // aggregated CheckpointStats.
  obs::Telemetry delta;
  auto r = metrics::run_cluster(suite, seq, delta_options(),
                                sim::seconds(36000.0), &delta);
  double dirty_bytes = 0, dirty_regions = 0, deltas = 0, compactions = 0;
  double skipped_clean = 0, skipped_empty = 0;
  for (const auto& row : delta.registry().counters()) {
    if (row.name == "vs_ckpt_dirty_bytes_total") {
      dirty_bytes += row.cell.value();
    }
    if (row.name == "vs_ckpt_dirty_regions_total") {
      dirty_regions += row.cell.value();
    }
    if (row.name == "vs_ckpt_deltas_total") deltas += row.cell.value();
    if (row.name == "vs_ckpt_compactions_total") {
      compactions += row.cell.value();
    }
    if (row.name == "vs_ckpt_skipped_total") {
      for (const auto& [k, v] : row.labels) {
        if (k != "reason") continue;
        if (v == "clean") skipped_clean += row.cell.value();
        if (v == "empty") skipped_empty += row.cell.value();
      }
    }
  }
  EXPECT_GT(dirty_regions, 0.0);
  EXPECT_EQ(deltas, static_cast<double>(r.checkpoint.deltas));
  EXPECT_EQ(compactions, static_cast<double>(r.checkpoint.compactions));
  EXPECT_EQ(skipped_clean, static_cast<double>(r.checkpoint.skipped_clean));
  EXPECT_EQ(skipped_empty, static_cast<double>(r.checkpoint.skipped_empty));
  // Delta bytes = headers + dirty bytes shipped.
  EXPECT_EQ(static_cast<double>(r.checkpoint.delta_bytes),
            dirty_bytes + static_cast<double>(r.checkpoint.deltas) *
                              runtime::kCkptDeltaHeaderBytes);
}

TEST(CheckpointDelta, SerialAndInstrumentedBitIdentical) {
  // Delta mode must hold the same determinism bar as whole-state:
  // telemetry never perturbs the run.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = stress_sequence(41);
  cluster::ClusterOptions options = delta_options();
  options.faults.hazards.slot_seu_per_s = 0.3;
  options.faults.hazards.link_flap_per_s = 0.1;
  options.faults.horizon = sim::seconds(30.0);

  auto serial = metrics::run_cluster(suite, seq, options);
  ASSERT_GT(serial.response_ms.size(), 0u);
  ASSERT_GT(serial.checkpoint.deltas, 0);

  obs::Telemetry telemetry;
  auto instrumented = metrics::run_cluster(suite, seq, options,
                                           sim::seconds(36000.0), &telemetry);
  ASSERT_EQ(instrumented.response_ms.size(), serial.response_ms.size());
  for (std::size_t i = 0; i < serial.response_ms.size(); ++i) {
    EXPECT_EQ(instrumented.response_ms[i], serial.response_ms[i]) << i;
  }
  EXPECT_EQ(instrumented.checkpoint.delta_bytes,
            serial.checkpoint.delta_bytes);
}

// ----------------------------------------------------- CheckpointGoldens

TEST(CheckpointGoldens, Seed2025CheckpointedRecoveryClusterRun) {
  // Frozen golden for the checkpointed-recovery configuration under the
  // standard seed-2025 stress sequence: any change to checkpoint timing,
  // snapshot accounting or the recovery path shows up here first.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 20;
  auto seq = workload::generate_sequences(config, 1, 2025)[0];
  auto result = metrics::run_cluster(suite, seq, checkpointed_options(true));
  ASSERT_EQ(result.completed, result.submitted);
  ASSERT_GT(result.response_ms.size(), 0u);
  EXPECT_DOUBLE_EQ(result.response.mean, 12772.485029500001);
  EXPECT_DOUBLE_EQ(result.response_ms.front(), 2405.7318300000002);
  EXPECT_DOUBLE_EQ(result.response_ms.back(), 17174.148399999998);
  EXPECT_EQ(result.recovery.apps_checkpoint_restored, 2);
  // Integer-nanosecond MTTR sum: exact.
  EXPECT_EQ(result.recovery.mttr_total, 72452479);
}

}  // namespace
}  // namespace vs
