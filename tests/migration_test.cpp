// Tests for iterative pre-copy live migration (cluster/migration.h): round
// convergence and the round cap, stop-and-copy downtime strictly below the
// whole-state switch, recovery through crashes/flaps/SEUs with pre-copy
// active, telemetry on/off bit-identity, and
// byte-identity of runs with the policy disabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "apps/benchmarks.h"
#include "cluster/cluster.h"
#include "cluster/migration.h"
#include "faults/scenario.h"
#include "fpga/board.h"
#include "metrics/experiment.h"
#include "metrics/sweep.h"
#include "obs/telemetry.h"
#include "runtime/board_runtime.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace vs {
namespace {

// A stress sequence long enough to push D_switch over T1 (the ext bench's
// fault-free rows show two switches per 40-app stress sequence).
workload::Sequence switching_sequence(std::uint64_t seed = 2025,
                                      int n_apps = 40) {
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = n_apps;
  util::Rng rng(seed);
  return workload::generate_sequence(config, rng);
}

cluster::ClusterOptions precopy_options(int max_rounds = 4,
                                        double convergence = 0.125) {
  cluster::ClusterOptions options;
  options.migration.precopy = true;
  options.migration.max_rounds = max_rounds;
  options.migration.convergence = convergence;
  return options;
}

// ------------------------------------------------------- PrecopyConvergence

TEST(PrecopyConvergence, FullConvergenceThresholdStopsAfterOneRound) {
  // convergence = 1.0 sets the floor at the first round's own volume, so
  // any residue converges immediately: every switch streams exactly one
  // round and stops.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = switching_sequence();
  auto r = metrics::run_cluster(suite, seq, precopy_options(8, 1.0));
  ASSERT_FALSE(r.switches.empty());
  EXPECT_EQ(r.completed, r.submitted);
  for (const cluster::SwitchEvent& e : r.switches) {
    EXPECT_EQ(e.precopy_rounds, 1);
    EXPECT_GE(e.precopy_bytes, 4096);         // control message + state
    EXPECT_GE(e.stopcopy_bytes, 4096);        // control message + residue
    EXPECT_EQ(e.bytes, e.precopy_bytes + e.stopcopy_bytes);
  }
}

TEST(PrecopyConvergence, RoundCapBoundsWriteHeavyStreams) {
  // With the convergence floor effectively off (1 byte) and a slow link —
  // so each round's transfer spans enough execution for running apps to
  // pause into the stream — rounds repeat, but never past max_rounds.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = switching_sequence();
  cluster::ClusterOptions options = precopy_options(3, 0.0);
  options.migration.min_dirty_bytes = 1;
  options.link_params.bandwidth_bytes_per_s = 2e8;
  options.faults.seed = 7;
  options.faults.hazards.slot_seu_per_s = 5.0;
  options.faults.horizon = sim::seconds(30.0);
  auto r = metrics::run_cluster(suite, seq, options);
  ASSERT_FALSE(r.switches.empty());
  EXPECT_EQ(r.completed, r.submitted);
  for (const cluster::SwitchEvent& e : r.switches) {
    EXPECT_GE(e.precopy_rounds, 1);
    EXPECT_LE(e.precopy_rounds, options.migration.max_rounds);
    EXPECT_EQ(e.bytes, e.precopy_bytes + e.stopcopy_bytes);
  }
}

TEST(PrecopyConvergence, RoundsShipOnlyDirtWrittenBetweenPauses) {
  // The round payload property pre-copy rests on, driven directly at the
  // BoardRuntime: an app's first pause-visible appearance in a stream
  // ships its full migratable footprint; after it runs again (a
  // write-heavy burst) the next round ships only the regions it dirtied —
  // strictly less than the footprint — and a round with no execution in
  // between ships nothing.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::big_little(), params);
  auto policy = metrics::make_policy(metrics::SystemKind::kVersaBigLittle);
  runtime::BoardRuntime rt(board, *policy);
  rt.enable_dirty_tracking(16 * 1024);
  // Several apps: the first fills the Big slot as a bundle (bundled apps
  // never migrate), the rest stay on the per-task decomposition — the
  // write-heavy subject is one of those.
  for (int i = 0; i < 4; ++i) rt.submit(suite[0], 0, 12, 0);

  // The subject: the first started app still on one-unit-per-task.
  auto subject = [&rt]() -> const runtime::AppRun* {
    for (int id : rt.live_ids()) {
      const runtime::AppRun& a = rt.app(id);
      if (a.started &&
          a.units.size() == static_cast<std::size_t>(a.spec->task_count())) {
        return &a;
      }
    }
    return nullptr;
  };
  auto total_items = [&](const runtime::AppRun& a) {
    int n = 0;
    for (const runtime::UnitRun& u : a.units) n += u.items_done;
    return n;
  };
  // Steps until the subject sits at an item boundary (nothing mid-flight
  // or mid-PR) with at least `min_items` committed, then preempts every
  // running unit so the whole app is pause-visible.
  auto run_then_pause = [&](int min_items) {
    auto pausable = [&] {
      const runtime::AppRun* a = subject();
      if (a == nullptr || total_items(*a) < min_items) return false;
      for (const runtime::UnitRun& u : a->units) {
        if (u.state == runtime::UnitState::kReconfiguring ||
            u.item_in_flight) {
          return false;
        }
      }
      return true;
    };
    while (sim.step() && !pausable()) {
    }
    const runtime::AppRun* a = subject();
    ASSERT_NE(a, nullptr);
    ASSERT_GE(total_items(*a), min_items);
    for (std::size_t i = 0; i < a->units.size(); ++i) {
      if (a->units[i].state == runtime::UnitState::kRunning) {
        rt.preempt_unit(a->id, static_cast<int>(i));
      }
    }
  };

  run_then_pause(4);
  rt.begin_migration_stream();
  const std::int64_t full = rt.take_migration_stream_bytes();
  ASSERT_GT(full, 0);
  // No execution since the stream started: the next round is empty.
  EXPECT_EQ(rt.take_migration_stream_bytes(), 0);

  const int before = total_items(*subject());
  run_then_pause(before + 2);  // the write-heavy burst between rounds
  const std::int64_t delta = rt.take_migration_stream_bytes();
  EXPECT_GT(delta, 0);
  EXPECT_LT(delta, full);
}

// --------------------------------------------------------- PrecopyDowntime

TEST(PrecopyDowntime, StopAndCopyStrictlyBelowWholeStateSwitch) {
  // The headline claim: for switches that actually move state, pre-copy
  // pays transfer time while the origins keep executing and stops the
  // world only for the final residue — strictly less downtime than the
  // whole-state stop-and-copy of the same workload.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = switching_sequence();

  cluster::ClusterOptions whole;  // defaults: whole-state migration
  auto w = metrics::run_cluster(suite, seq, whole);
  auto p = metrics::run_cluster(suite, seq, precopy_options());

  sim::SimDuration whole_max = 0, pre_max = 0;
  int whole_moves = 0, pre_moves = 0;
  for (const cluster::SwitchEvent& e : w.switches) {
    EXPECT_EQ(e.precopy_rounds, 0);  // whole-state streams nothing
    EXPECT_EQ(e.stopcopy_bytes, e.bytes);
    if (e.apps_migrated > 0) {
      ++whole_moves;
      whole_max = std::max(whole_max, e.downtime);
    }
  }
  for (const cluster::SwitchEvent& e : p.switches) {
    if (e.apps_migrated > 0) {
      ++pre_moves;
      pre_max = std::max(pre_max, e.downtime);
    }
  }
  ASSERT_GT(whole_moves, 0);
  ASSERT_GT(pre_moves, 0);
  EXPECT_GT(whole_max, 0);
  EXPECT_LT(pre_max, whole_max);
  // Both modes finish the workload completely.
  EXPECT_EQ(w.completed, w.submitted);
  EXPECT_EQ(p.completed, p.submitted);
}

// --------------------------------------------------------- PrecopyRecovery

TEST(PrecopyRecovery, SurvivesCrashesFlapsAndSeusWithDeltaCheckpoints) {
  // The full PR 7 configuration — delta checkpointing and pre-copy
  // migration — through the scripted double crash plus background SEU and
  // link-flap hazards: nothing is lost and snapshots still restore apps.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = switching_sequence();
  cluster::ClusterOptions options = precopy_options();
  options.checkpoint.enabled = true;
  options.checkpoint.delta = true;
  options.recovery.enable_recovery = true;
  options.faults.seed = 404;
  options.faults.hazards.slot_seu_per_s = 0.3;
  options.faults.hazards.link_flap_per_s = 0.1;
  options.faults.horizon = sim::seconds(30.0);
  options.faults.timeline.push_back(
      {sim::seconds(2.0), faults::FaultKind::kBoardCrash, 0, -1});
  options.faults.timeline.push_back(
      {sim::seconds(10.0), faults::FaultKind::kBoardCrash, 1, -1});
  auto r = metrics::run_cluster(suite, seq, options);
  EXPECT_EQ(r.completed, r.submitted);
  EXPECT_EQ(r.recovery.apps_lost, 0);
  EXPECT_EQ(r.recovery.boards_crashed, 2);
  EXPECT_GT(r.checkpoint.deltas, 0);
}

// ------------------------------------------------------ PrecopyDeterminism

TEST(PrecopyDeterminism, SerialAndInstrumentedBitIdentical) {
  // Pre-copy plus delta checkpointing under crash + flap + SEU hazards:
  // telemetry never perturbs results.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = switching_sequence();
  cluster::ClusterOptions options = precopy_options();
  options.checkpoint.enabled = true;
  options.checkpoint.delta = true;
  options.recovery.enable_recovery = true;
  options.faults.seed = 404;
  options.faults.hazards.board_crash_per_s = 0.02;
  options.faults.hazards.slot_seu_per_s = 0.3;
  options.faults.hazards.link_flap_per_s = 0.1;
  options.faults.horizon = sim::seconds(30.0);

  auto serial = metrics::run_cluster(suite, seq, options);
  ASSERT_GT(serial.response_ms.size(), 0u);

  obs::Telemetry telemetry;
  auto instrumented = metrics::run_cluster(suite, seq, options,
                                           sim::seconds(36000.0), &telemetry);
  ASSERT_EQ(instrumented.response_ms.size(), serial.response_ms.size());
  for (std::size_t i = 0; i < serial.response_ms.size(); ++i) {
    EXPECT_EQ(instrumented.response_ms[i], serial.response_ms[i]) << i;
  }
  ASSERT_EQ(instrumented.switches.size(), serial.switches.size());
  for (std::size_t i = 0; i < serial.switches.size(); ++i) {
    const cluster::SwitchEvent& a = instrumented.switches[i];
    const cluster::SwitchEvent& b = serial.switches[i];
    EXPECT_EQ(a.precopy_rounds, b.precopy_rounds) << "switch " << i;
    EXPECT_EQ(a.precopy_bytes, b.precopy_bytes) << "switch " << i;
    EXPECT_EQ(a.stopcopy_bytes, b.stopcopy_bytes) << "switch " << i;
    EXPECT_EQ(a.downtime, b.downtime) << "switch " << i;
  }
  EXPECT_EQ(instrumented.checkpoint.delta_bytes, serial.checkpoint.delta_bytes);
  EXPECT_EQ(instrumented.recovery.mttr_total, serial.recovery.mttr_total);
}

// --------------------------------------------------------- PrecopyDisabled

TEST(PrecopyDisabled, InactivePolicyIsByteIdenticalToDefaults) {
  // precopy = false (even with every other knob tweaked) must not perturb
  // a run in any way — the whole-state switch path is untouched.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = switching_sequence();
  cluster::ClusterOptions plain;
  auto a = metrics::run_cluster(suite, seq, plain);
  cluster::ClusterOptions tweaked;
  tweaked.migration.precopy = false;
  tweaked.migration.max_rounds = 9;
  tweaked.migration.convergence = 0.5;
  tweaked.migration.min_dirty_bytes = 1;
  auto b = metrics::run_cluster(suite, seq, tweaked);
  ASSERT_EQ(b.response_ms.size(), a.response_ms.size());
  for (std::size_t i = 0; i < a.response_ms.size(); ++i) {
    EXPECT_EQ(b.response_ms[i], a.response_ms[i]) << i;
  }
  ASSERT_EQ(b.switches.size(), a.switches.size());
  for (std::size_t i = 0; i < a.switches.size(); ++i) {
    EXPECT_EQ(b.switches[i].bytes, a.switches[i].bytes) << i;
    EXPECT_EQ(b.switches[i].overhead, a.switches[i].overhead) << i;
  }
  EXPECT_EQ(b.events, a.events);
}

TEST(PrecopyDisabled, NoMigrationInstrumentsRegisteredWhenInactive) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = switching_sequence(2025, 20);
  obs::Telemetry telemetry;
  (void)metrics::run_cluster(suite, seq, {}, sim::seconds(36000.0),
                             &telemetry);
  for (const auto& row : telemetry.registry().counters()) {
    EXPECT_EQ(row.name.rfind("vs_migration_", 0), std::string::npos)
        << row.name;
  }
  for (const auto& row : telemetry.registry().histograms()) {
    EXPECT_EQ(row.name.rfind("vs_migration_", 0), std::string::npos)
        << row.name;
  }
}

// -------------------------------------------------------- PrecopyTelemetry

TEST(PrecopyTelemetry, RoundAndDowntimeInstrumentsMatchSwitchEvents) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = switching_sequence();
  obs::Telemetry telemetry;
  auto r = metrics::run_cluster(suite, seq, precopy_options(),
                                sim::seconds(36000.0), &telemetry);
  ASSERT_FALSE(r.switches.empty());
  double rounds = 0, precopy_bytes = 0;
  for (const auto& row : telemetry.registry().counters()) {
    if (row.name == "vs_migration_rounds_total") rounds += row.cell.value();
    if (row.name == "vs_migration_precopy_bytes_total") {
      precopy_bytes += row.cell.value();
    }
  }
  double expected_rounds = 0, expected_bytes = 0;
  for (const cluster::SwitchEvent& e : r.switches) {
    expected_rounds += e.precopy_rounds;
    expected_bytes += static_cast<double>(e.precopy_bytes);
  }
  EXPECT_EQ(rounds, expected_rounds);
  EXPECT_EQ(precopy_bytes, expected_bytes);
  // Registering again finds the run's cell and adds no instrument.
  const std::size_t instruments = telemetry.registry().size();
  const obs::Histogram& downtime =
      telemetry.registry().histogram("vs_migration_downtime_ms", {});
  ASSERT_EQ(telemetry.registry().size(), instruments);
  EXPECT_EQ(downtime.count(), r.switches.size());
}

}  // namespace
}  // namespace vs
