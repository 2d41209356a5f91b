// Whole runs audited after every event, VersaSlot's memo key checked after
// every event, and a golden pin of the D_switch samples.
//
// The runtime keeps indices beside the state they summarise: per-state unit
// masks and the in-flight mask, per-kind idle-slot masks, the pool cell
// that routing and D_switch sampling read instead of the runtime, the
// slot-less count and the launch marks. These tests step a serve run, a
// faulted cluster run and single-board runs of every system one event at a
// time and audit every active runtime after each event, so a transition
// that forgets an index fails at the event that broke it.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "apps/benchmarks.h"
#include "cluster/cluster.h"
#include "fpga/board.h"
#include "metrics/experiment.h"
#include "runtime/invariants.h"
#include "serve/resource_manager.h"
#include "serve/tenant.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "workload/patterns.h"

namespace vs {
namespace {

/// Steps `sim` until it drains, auditing every active runtime of `cluster`
/// after each event. Returns the events stepped; stops at the first
/// violation.
std::int64_t step_audited(sim::Simulator& sim, cluster::Cluster& cluster) {
  std::int64_t events = 0;
  while (sim.step()) {
    ++events;
    for (int i = 0; i < cluster.active_board_count(); ++i) {
      const runtime::InvariantReport report =
          runtime::audit(cluster.active_runtime(i));
      if (!report.ok()) {
        ADD_FAILURE() << "event " << events << " t=" << sim.now()
                      << " position " << i << ": " << report.to_string();
        return events;
      }
    }
  }
  return events;
}

/// Two tenants on 8 boards per config, past saturation: a Poisson stream
/// and a quota-capped MMPP batch tenant, with rebalancing on.
serve::ServeConfig tiny_serve(std::uint64_t seed) {
  constexpr int kBoards = 8;
  serve::ServeConfig config;
  config.seed = seed;
  config.horizon = sim::seconds(3.0);
  config.max_inflight = 3 * kBoards;
  config.classes = {{"standard", sim::ms(4000.0), 0},
                    {"batch", sim::ms(12000.0), 1}};
  serve::Tenant standard;
  standard.name = "standard";
  standard.arrivals.kind = workload::ArrivalKind::kPoisson;
  standard.arrivals.rate_per_s = 1.2 * kBoards;
  standard.min_batch = 5;
  standard.max_batch = 20;
  serve::Tenant batch;
  batch.name = "batch";
  batch.slo_class = 1;
  batch.quota = kBoards;
  batch.defer_limit = kBoards;
  batch.arrivals.kind = workload::ArrivalKind::kMmpp;
  batch.arrivals.rate_per_s = 0.15 * kBoards;
  batch.arrivals.burst_rate_per_s = 1.8 * kBoards;
  batch.arrivals.burst_on_s = 0.5;
  batch.arrivals.burst_off_s = 1.5;
  batch.min_batch = 15;
  batch.max_batch = 30;
  config.tenants = {standard, batch};
  config.rebalance = true;
  return config;
}

/// Two boards (one per config) on Fig 8 stress/relief cycles with D_switch
/// on, crash, flap and SEU hazards, delta checkpoints, and one scripted
/// crash of each board so every seed crashes and reboots.
cluster::ClusterOptions faulted_options(std::uint64_t seed,
                                        sim::SimTime horizon) {
  cluster::ClusterOptions options;
  options.faults.seed = seed;
  options.faults.hazards.board_crash_per_s = 0.01;
  options.faults.hazards.link_flap_per_s = 0.05;
  options.faults.hazards.slot_seu_per_s = 0.1;
  options.faults.horizon = horizon;
  options.faults.timeline = {
      {horizon / 3, faults::FaultKind::kBoardCrash, 0, -1},
      {2 * horizon / 3, faults::FaultKind::kBoardCrash, 1, -1}};
  options.checkpoint.enabled = true;
  options.checkpoint.delta = true;
  return options;
}

workload::Sequence faulted_sequence(std::uint64_t seed) {
  std::vector<workload::Phase> phases;
  for (int c = 0; c < 3; ++c) {
    phases.push_back({30, workload::Congestion::kStress});
    phases.push_back({50, workload::Congestion::kStandard});
  }
  util::Rng rng(seed);
  return workload::phased_sequence(phases, rng);
}

/// FNV-1a over every field of every sample, doubles by bit pattern.
std::uint64_t dswitch_hash(const std::vector<core::DSwitchSample>& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const core::DSwitchSample& s : trace) {
    std::int64_t value_bits = 0;
    std::memcpy(&value_bits, &s.value, sizeof value_bits);
    add(s.time);
    add(value_bits);
    add(s.blocked);
    add(s.prs);
    add(s.apps);
    add(s.batch);
  }
  return h;
}

TEST(StepwiseAudit, ServeRunHoldsEveryInvariantAfterEveryEvent) {
  const auto suite = apps::make_suite(fpga::BoardParams{});
  for (std::uint64_t seed : {2025ULL, 7ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    cluster::ClusterOptions options;
    options.boards_per_config = 8;
    options.enable_switching = false;
    const serve::ServeConfig config = tiny_serve(seed);
    sim::Simulator sim;
    cluster::Cluster cluster(sim, suite, options);
    serve::ResourceManager manager(sim, cluster, config, nullptr);
    manager.start(static_cast<int>(suite.size()));
    const std::int64_t events = step_audited(sim, cluster);
    EXPECT_TRUE(sim.idle()) << "stopped at event " << events;
    EXPECT_GT(manager.completions(), 0);
    EXPECT_EQ(static_cast<std::int64_t>(cluster.completed().size()),
              cluster.submitted());
  }
}

TEST(StepwiseAudit, FaultedClusterRunHoldsEveryInvariantAfterEveryEvent) {
  const auto suite = apps::make_suite(fpga::BoardParams{});
  for (std::uint64_t seed : {2025ULL, 7ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const workload::Sequence seq = faulted_sequence(seed);
    sim::Simulator sim;
    cluster::Cluster cluster(sim, suite,
                             faulted_options(seed, seq.back().arrival));
    cluster.submit_sequence(seq);
    const std::int64_t events = step_audited(sim, cluster);
    EXPECT_TRUE(sim.idle()) << "stopped at event " << events;
    // The run covers what the audit is meant to see.
    EXPECT_FALSE(cluster.switches().empty());
    EXPECT_GE(cluster.recovery_stats().boards_crashed, 2);
    EXPECT_GE(cluster.recovery_stats().boards_rebooted, 2);
    EXPECT_GT(cluster.recovery_stats().slot_seus, 0);
  }
}

TEST(StepwiseAudit, StreamedSingleBoardRunsHoldEveryInvariantAfterEveryEvent) {
  // Every system on one board, with streamed and staged apps mixed: the
  // launch marks (I11) must follow stream wake-ups as well as PR, load and
  // item ends, and the slot-less count every transition.
  const fpga::BoardParams params;
  const auto suite = apps::make_suite(params);
  for (std::uint64_t seed : {2025ULL, 7ULL}) {
    const workload::Sequence seq = test::mixed_stream_sequence(seed);
    for (int k = 0; k < metrics::kSystemCountExtended; ++k) {
      const auto kind = static_cast<metrics::SystemKind>(k);
      SCOPED_TRACE(std::string(metrics::system_name(kind)) + " seed " +
                   std::to_string(seed));
      sim::Simulator sim;
      fpga::Board board(sim, "fpga0", metrics::fabric_for(kind), params);
      auto policy = metrics::make_policy(kind);
      runtime::BoardRuntime rt(board, *policy);
      for (const apps::AppArrival& a : seq) {
        sim.schedule_at(a.arrival, [&rt, &suite, a] {
          rt.submit(suite.at(static_cast<std::size_t>(a.spec_index)),
                    a.spec_index, a.batch, a.arrival, a.item_interval);
        });
      }
      std::int64_t events = 0;
      while (sim.step()) {
        ++events;
        const runtime::InvariantReport report = runtime::audit(rt);
        if (!report.ok()) {
          ADD_FAILURE() << "event " << events << " t=" << sim.now() << ": "
                        << report.to_string();
          break;
        }
      }
      EXPECT_EQ(rt.completed().size(), seq.size());
    }
  }
}

TEST(StepwiseAudit, ExtractingBoardConservesEveryAdmittedApp) {
  // I7: every app a board admitted has completed, been extracted or is
  // live. The cluster runs above audit only active boards, and a board that
  // extracts (a switch origin, a crashed board) leaves the pool, so here
  // one board gives up its unstarted and paused apps every 97 events and
  // takes them back as migrations, audited after each event and each
  // extraction.
  const fpga::BoardParams params;
  const auto suite = apps::make_suite(params);
  for (auto kind : {metrics::SystemKind::kVersaOnlyLittle,
                    metrics::SystemKind::kVersaBigLittle}) {
    SCOPED_TRACE(metrics::system_name(kind));
    const workload::Sequence seq = test::mixed_stream_sequence(2025);
    sim::Simulator sim;
    fpga::Board board(sim, "fpga0", metrics::fabric_for(kind), params);
    auto policy = metrics::make_policy(kind);
    runtime::BoardRuntime rt(board, *policy);
    for (const apps::AppArrival& a : seq) {
      sim.schedule_at(a.arrival, [&rt, &suite, a] {
        rt.submit(suite.at(static_cast<std::size_t>(a.spec_index)),
                  a.spec_index, a.batch, a.arrival, a.item_interval);
      });
    }
    auto audited = [&](std::int64_t event) {
      const runtime::InvariantReport report = runtime::audit(rt);
      if (!report.ok()) {
        ADD_FAILURE() << "event " << event << " t=" << sim.now() << ": "
                      << report.to_string();
      }
      return report.ok();
    };
    for (std::int64_t event = 1; sim.step() && audited(event); ++event) {
      if (event % 97 != 0) continue;
      const std::vector<runtime::BoardRuntime::MigratedApp> moved =
          event % 2 != 0 ? rt.extract_migratable() : rt.extract_unstarted();
      if (!audited(event)) break;
      for (const auto& m : moved) {
        rt.submit_migrated(suite.at(static_cast<std::size_t>(m.spec_index)),
                           m, runtime::AppPhase::kMigration);
      }
    }
    const runtime::RuntimeCounters& c = rt.counters();
    EXPECT_GT(c.apps_extracted, 0);
    EXPECT_EQ(c.apps_completed, static_cast<std::int64_t>(seq.size()));
    EXPECT_EQ(rt.admitted(), c.apps_completed + c.apps_extracted);
  }
}

/// What VersaSlot's Algorithm 1 and placement sweep read of a runtime, and
/// memoize against BoardRuntime::allocation_changes(): the live set, each
/// live app's pending, placed and finished units and its started flag, and
/// both idle-slot masks.
struct AllocationView {
  struct App {
    int id;
    std::uint32_t pending;
    std::uint32_t placed;
    std::uint32_t finished;
    bool started;
    bool operator==(const App&) const = default;
  };
  std::vector<App> live;
  std::array<std::uint64_t, 2> idle{};
  bool operator==(const AllocationView&) const = default;
};

AllocationView allocation_view(const runtime::BoardRuntime& rt) {
  using runtime::UnitState;
  AllocationView v;
  for (int id : rt.live_ids()) {
    const runtime::AppRun& a = rt.app(id);
    v.live.push_back({id, a.units_mask(UnitState::kPending),
                      a.units_mask(UnitState::kReconfiguring) |
                          a.units_mask(UnitState::kRunning),
                      a.units_mask(UnitState::kFinished), a.started});
  }
  v.idle = {rt.idle_mask(fpga::SlotKind::kBig),
            rt.idle_mask(fpga::SlotKind::kLittle)};
  return v;
}

/// Units of the live apps that are reconfiguring, by app: a PR completion
/// moves a unit from here to running and changes nothing in the view.
std::vector<std::uint32_t> reconfiguring(const runtime::BoardRuntime& rt) {
  std::vector<std::uint32_t> out;
  for (int id : rt.live_ids()) {
    out.push_back(rt.app(id).units_mask(runtime::UnitState::kReconfiguring));
  }
  return out;
}

TEST(AllocationChanges, CoverWhatAllocationAndPlacementRead) {
  // VersaSlot skips Algorithm 1 and its placement sweep while the change
  // count stands still, so the count must move whenever anything they read
  // changes. A PR completion changes nothing they read and must leave it.
  const fpga::BoardParams params;
  const auto suite = apps::make_suite(params);
  for (auto kind : {metrics::SystemKind::kVersaOnlyLittle,
                    metrics::SystemKind::kVersaBigLittle}) {
    for (auto congestion :
         {workload::Congestion::kStandard, workload::Congestion::kStress}) {
      for (std::uint64_t seed : {2025ULL, 7ULL}) {
        SCOPED_TRACE(std::string(metrics::system_name(kind)) + " " +
                     workload::congestion_name(congestion) + " seed " +
                     std::to_string(seed));
        workload::WorkloadConfig config;
        config.congestion = congestion;
        const workload::Sequence seq =
            workload::generate_sequences(config, 1, seed)[0];
        sim::Simulator sim;
        fpga::Board board(sim, "fpga0", metrics::fabric_for(kind), params);
        auto policy = metrics::make_policy(kind);
        runtime::BoardRuntime rt(board, *policy);
        for (const apps::AppArrival& a : seq) {
          sim.schedule_at(a.arrival, [&rt, &suite, a] {
            rt.submit(suite.at(static_cast<std::size_t>(a.spec_index)),
                      a.spec_index, a.batch, a.arrival, a.item_interval);
          });
        }
        int changed_steps = 0;
        int pr_completions = 0;
        AllocationView before = allocation_view(rt);
        std::vector<std::uint32_t> reconfig_before = reconfiguring(rt);
        std::uint64_t count_before = rt.allocation_changes();
        for (std::int64_t event = 1; sim.step(); ++event) {
          const AllocationView after = allocation_view(rt);
          const std::vector<std::uint32_t> reconfig_after = reconfiguring(rt);
          const std::uint64_t count_after = rt.allocation_changes();
          if (after != before) {
            ++changed_steps;
            ASSERT_NE(count_after, count_before)
                << "event " << event << " t=" << sim.now()
                << ": what allocation or placement reads changed, the "
                   "count did not";
          } else if (reconfig_after != reconfig_before) {
            // Same live set and placed units: reconfiguring units became
            // running (a PR completion) and nothing else changed.
            ++pr_completions;
            ASSERT_EQ(count_after, count_before)
                << "event " << event << " t=" << sim.now()
                << ": a PR completion moved the count";
          }
          before = after;
          reconfig_before = reconfig_after;
          count_before = count_after;
        }
        EXPECT_EQ(rt.completed().size(), seq.size());
        EXPECT_GT(changed_steps, 0);
        EXPECT_GT(pr_completions, 0);
      }
    }
  }
}

TEST(DSwitchGolden, FaultedClusterSamplesKeepTheirValues) {
  // Every field of every D_switch sample of the faulted run, hashed. The
  // constants were computed when sampling still walked each active
  // runtime's live apps and kept a per-epoch PR snapshot; reading the pool
  // cells must reproduce them exactly.
  const auto suite = apps::make_suite(fpga::BoardParams{});
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> golden = {
      {2025, 0x1adc6b782951101aULL}, {7, 0x0bc46293b20b6e46ULL}};
  for (const auto& [seed, hash] : golden) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const workload::Sequence seq = faulted_sequence(seed);
    sim::Simulator sim;
    cluster::Cluster cluster(sim, suite,
                             faulted_options(seed, seq.back().arrival));
    cluster.submit_sequence(seq);
    sim.run();
    const auto& trace = cluster.dswitch().trace();
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(dswitch_hash(trace), hash);
  }
}

}  // namespace
}  // namespace vs
