// Chaos-campaign fuzzer for correlated failure domains: randomized
// multi-rack scenarios mixing board-crash, link-flap, SEU and rack-event
// hazards (plus a scripted common-mode rack hit) over randomized recovery
// policies (mode, throttle, shed threshold, checkpointing). After every
// run the harness asserts machine-checkable invariants rather than
// scenario-specific expectations:
//
//   1. App conservation: completed + lost + shed + arrivals_shed ==
//      submitted — every submitted app ends in exactly one bucket once
//      the run drains (still-active is zero by construction: the kernel
//      ran out of events).
//   2. Availability algebra: availability == 1 iff no board crashed;
//      mean unavailability is bounded by crashes x reboot-time spread
//      over the fleet; every crash's reboot ran (the run drained).
//   3. MTTR bounds: every recovery ticket spans at least the detection
//      latency, and there is at most one ticket per crash (batched
//      detection can only merge them).
//   4. Bit-identity: a telemetry-instrumented replay produces the same
//      run, byte for byte, under correlated faults.
//
// Plus the spare-pool exhaustion edge cases: every rack (spanning both
// pools) dying simultaneously with zero spares must still drain with
// every app accounted for, and a destination board dying mid-evacuation
// must re-queue the in-flight apps instead of losing them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/benchmarks.h"
#include "cluster/cluster.h"
#include "faults/scenario.h"
#include "metrics/experiment.h"
#include "obs/telemetry.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vs {
namespace {

struct ChaosCase {
  cluster::ClusterOptions options;
  workload::Sequence sequence;
  int racks = 1;
  std::string describe;
};

// Every knob of a case derives from the fuzz seed through one meta-rng,
// so a failing seed reproduces exactly.
ChaosCase make_case(std::uint64_t fuzz_seed) {
  util::Rng meta(fuzz_seed);
  ChaosCase c;
  c.racks = 1 + static_cast<int>(meta.uniform_int(0, 1));
  cluster::ClusterOptions& o = c.options;
  o.boards_per_config = c.racks;
  // Rack r spans one board of each pool (a shared feed across the
  // failover pair — the hardest case for spare-pool recovery).
  for (int r = 0; r < c.racks; ++r) {
    faults::FailureDomain dom;
    dom.name = "r" + std::to_string(r);
    dom.boards = {r, c.racks + r};
    if (meta.bernoulli(0.5)) dom.jitter = sim::ms(1.0);
    if (meta.bernoulli(0.3)) dom.survival_probability = 0.25;
    o.faults.domains.push_back(std::move(dom));
  }
  o.faults.seed = 50'000 + fuzz_seed;
  o.faults.hazards.rack_event_per_s = 0.05 + 0.10 * meta.uniform01();
  if (meta.bernoulli(0.5)) o.faults.hazards.board_crash_per_s = 0.02;
  if (meta.bernoulli(0.5)) o.faults.hazards.link_flap_per_s = 0.10;
  if (meta.bernoulli(0.5)) o.faults.hazards.slot_seu_per_s = 0.50;
  o.faults.horizon = sim::seconds(20.0);
  // One guaranteed common-mode hit per run, on top of the hazard chains.
  o.faults.timeline.push_back(
      {sim::seconds(2.0), faults::FaultKind::kRackEvent, 0, -1});
  const int mode = static_cast<int>(meta.uniform_int(0, 2));
  o.recovery.enable_recovery = mode != 0;
  o.recovery.kill_restart = mode == 1;
  const int throttle = static_cast<int>(meta.uniform_int(0, 2));
  o.recovery.throttle =
      throttle == 0   ? cluster::RecoveryOptions::Throttle::kOff
      : throttle == 1 ? cluster::RecoveryOptions::Throttle::kDefer
                      : cluster::RecoveryOptions::Throttle::kShed;
  if (meta.bernoulli(0.3)) {
    o.recovery.shed_threshold = static_cast<int>(meta.uniform_int(0, 4));
  }
  o.checkpoint.enabled = mode == 2 && meta.bernoulli(0.5);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 12;
  util::Rng wl(200 + fuzz_seed);
  c.sequence = workload::generate_sequence(config, wl);
  c.describe = "fuzz_seed=" + std::to_string(fuzz_seed) +
               " racks=" + std::to_string(c.racks) +
               " mode=" + std::to_string(mode) +
               " throttle=" + std::to_string(throttle) +
               " ckpt=" + std::to_string(o.checkpoint.enabled);
  return c;
}

void check_invariants(const metrics::ClusterRunResult& r,
                      const ChaosCase& c) {
  SCOPED_TRACE(c.describe);
  // 1. Conservation: the run drained, so still-active is zero and every
  // submitted app is completed, lost, shed, or refused at the door.
  test::expect_app_conservation(r);
  EXPECT_EQ(static_cast<int>(r.apps.size()), r.completed);

  // 2. Availability algebra.
  const int n_boards = 2 * c.racks;
  if (r.recovery.boards_crashed == 0) {
    EXPECT_EQ(r.availability, 1.0);
  } else {
    EXPECT_LT(r.availability, 1.0);
    EXPECT_GE(r.availability, 0.0);
    // A drained run has executed every scheduled reboot.
    EXPECT_EQ(r.recovery.boards_rebooted, r.recovery.boards_crashed);
    // Each crash keeps its board down for exactly the reboot time, and
    // the mean is taken over a span at least as long as the last
    // completion, so unavailability is bounded by
    // crashes x reboot / (boards x span).
    sim::SimTime last_done = 0;
    for (const runtime::CompletedApp& a : r.apps) {
      last_done = std::max(last_done, a.completed);
    }
    if (last_done > 0) {
      const double bound =
          static_cast<double>(r.recovery.boards_crashed) *
          static_cast<double>(c.options.faults.repair.board_reboot) /
          (static_cast<double>(n_boards) * static_cast<double>(last_done));
      EXPECT_LE(1.0 - r.availability, bound + 1e-12);
    }
  }

  // 3. MTTR bounds: a ticket opens at detection (>= kDetectionLatency
  // after its first crash) and batching can only merge tickets, never
  // mint extra ones.
  EXPECT_LE(r.recovery.mttr_count, r.recovery.boards_crashed);
  EXPECT_GE(r.recovery.mttr_total,
            static_cast<sim::SimDuration>(r.recovery.mttr_count) *
                cluster::kDetectionLatency);

  // The scripted rack event always lands.
  EXPECT_GE(r.recovery.rack_events, 1);
}

// `compare_events` is off for the telemetry replay: instrumentation
// schedules its own sampling events in the kernel, so the raw event count
// is not telemetry-invariant — everything observable is.
void expect_same_run(const metrics::ClusterRunResult& a,
                     const metrics::ClusterRunResult& b,
                     const std::string& what, bool compare_events = true) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  ASSERT_EQ(a.response_ms.size(), b.response_ms.size());
  for (std::size_t i = 0; i < a.response_ms.size(); ++i) {
    EXPECT_EQ(a.response_ms[i], b.response_ms[i]) << i;
  }
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].completed, b.apps[i].completed) << i;
    EXPECT_EQ(a.apps[i].spec_index, b.apps[i].spec_index) << i;
  }
  EXPECT_EQ(a.recovery.boards_crashed, b.recovery.boards_crashed);
  EXPECT_EQ(a.recovery.rack_events, b.recovery.rack_events);
  EXPECT_EQ(a.recovery.spare_exhausted, b.recovery.spare_exhausted);
  EXPECT_EQ(a.recovery.apps_evacuated, b.recovery.apps_evacuated);
  EXPECT_EQ(a.recovery.apps_restarted, b.recovery.apps_restarted);
  EXPECT_EQ(a.recovery.apps_lost, b.recovery.apps_lost);
  EXPECT_EQ(a.recovery.apps_shed, b.recovery.apps_shed);
  EXPECT_EQ(a.recovery.arrivals_deferred, b.recovery.arrivals_deferred);
  EXPECT_EQ(a.recovery.arrivals_shed, b.recovery.arrivals_shed);
  EXPECT_EQ(a.recovery.readmissions, b.recovery.readmissions);
  EXPECT_EQ(a.recovery.mttr_total, b.recovery.mttr_total);
  EXPECT_EQ(a.recovery.mttr_count, b.recovery.mttr_count);
  EXPECT_EQ(a.availability, b.availability);
  if (compare_events) {
    EXPECT_EQ(a.events, b.events);
  }
}

// ------------------------------------------------------------ ChaosCampaign

class ChaosCampaign : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosCampaign, InvariantsHoldAndTelemetryAgrees) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  ChaosCase c = make_case(GetParam());

  auto serial = metrics::run_cluster(suite, c.sequence, c.options);
  check_invariants(serial, c);

  // Telemetry must observe, not perturb.
  obs::Telemetry telemetry;
  auto instrumented = metrics::run_cluster(suite, c.sequence, c.options,
                                           sim::seconds(36000.0), &telemetry);
  expect_same_run(serial, instrumented, c.describe + " telemetry",
                  /*compare_events=*/false);
  // The rack counter made it into the registry (domains are present).
  double rack_total = 0;
  for (const auto& row : telemetry.registry().counters()) {
    if (row.name == "vs_rack_events_total") rack_total += row.cell.value();
  }
  EXPECT_EQ(rack_total, static_cast<double>(serial.recovery.rack_events));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosCampaign,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ------------------------------------------------------- SparePoolExhausted

TEST(SparePoolExhausted, AllRacksDieSimultaneouslyWithZeroSparesAndDrain) {
  // Two racks, each spanning one board of both pools; both scripted rack
  // events fire at the same instant, so all four boards die inside one
  // detection window and there is no spare pool left to fail over to. The
  // batched handler must record the exhaustion, queue every displaced app
  // for re-admission, and the run must still drain with every app
  // accounted for.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 16;
  util::Rng rng(71);
  auto seq = workload::generate_sequence(config, rng);

  cluster::ClusterOptions options;
  options.boards_per_config = 2;
  options.faults.seed = 71;
  for (int r = 0; r < 2; ++r) {
    faults::FailureDomain dom;
    dom.name = "r" + std::to_string(r);
    dom.boards = {r, 2 + r};
    options.faults.domains.push_back(std::move(dom));
    options.faults.timeline.push_back(
        {sim::seconds(2.0), faults::FaultKind::kRackEvent, r, -1});
  }
  options.recovery.throttle = cluster::RecoveryOptions::Throttle::kDefer;

  auto result = metrics::run_cluster(suite, seq, options);
  EXPECT_EQ(result.recovery.rack_events, 2);
  EXPECT_EQ(result.recovery.boards_crashed, 4);
  EXPECT_EQ(result.recovery.boards_rebooted, 4);
  EXPECT_GE(result.recovery.spare_exhausted, 1);
  EXPECT_GT(result.recovery.readmissions, 0);
  // Nothing is lost or shed under full recovery + defer: the whole
  // backlog re-admits after the reboots and the run completes.
  EXPECT_EQ(result.recovery.apps_lost, 0);
  EXPECT_EQ(result.recovery.apps_shed, 0);
  EXPECT_EQ(result.completed, result.submitted);
  test::expect_app_conservation(result);
}

TEST(SparePoolExhausted, FullOutageUnderShedThrottleRefusesButConserves) {
  // Same double-rack wipeout, kShed: arrivals landing during the outage
  // (or behind the readmission backlog) are refused at the door and must
  // show up in arrivals_shed — conservation still balances exactly.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 16;
  util::Rng rng(71);
  auto seq = workload::generate_sequence(config, rng);

  cluster::ClusterOptions options;
  options.boards_per_config = 2;
  options.faults.seed = 71;
  for (int r = 0; r < 2; ++r) {
    faults::FailureDomain dom;
    dom.name = "r" + std::to_string(r);
    dom.boards = {r, 2 + r};
    options.faults.domains.push_back(std::move(dom));
    options.faults.timeline.push_back(
        {sim::seconds(2.0), faults::FaultKind::kRackEvent, r, -1});
  }
  options.recovery.throttle = cluster::RecoveryOptions::Throttle::kShed;

  auto result = metrics::run_cluster(suite, seq, options);
  EXPECT_EQ(result.recovery.boards_crashed, 4);
  EXPECT_GE(result.recovery.spare_exhausted, 1);
  EXPECT_GT(result.recovery.arrivals_shed, 0);
  EXPECT_EQ(result.completed,
            result.submitted - result.recovery.arrivals_shed -
                result.recovery.apps_lost - result.recovery.apps_shed);
  test::expect_app_conservation(result);
}

TEST(SparePoolExhausted, DestinationDiesMidEvacuationAndAppsRequeue) {
  // Crash-during-evacuation race: the active board dies, the batched
  // handler fails the cluster over and starts the evacuation transfer —
  // and then the destination dies while the state is still on the link
  // (10 us into the 20 us Aurora setup window). The landing must find no
  // boards, queue the apps for re-admission, and the reboots must drain
  // everything.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 14;
  util::Rng rng(83);
  auto seq = workload::generate_sequence(config, rng);

  cluster::ClusterOptions options;
  options.faults.seed = 83;
  // Single-board racks: batching stays on, each board its own domain.
  for (int b = 0; b < 2; ++b) {
    faults::FailureDomain dom;
    dom.name = "b" + std::to_string(b);
    dom.boards = {b};
    options.faults.domains.push_back(std::move(dom));
  }
  const sim::SimTime crash_at = sim::seconds(2.0);
  options.faults.timeline.push_back(
      {crash_at, faults::FaultKind::kBoardCrash, 0, -1});
  options.faults.timeline.push_back(
      {crash_at + cluster::kDetectionLatency + sim::us(10.0),
       faults::FaultKind::kBoardCrash, 1, -1});
  options.recovery.throttle = cluster::RecoveryOptions::Throttle::kDefer;

  auto result = metrics::run_cluster(suite, seq, options);
  EXPECT_EQ(result.recovery.boards_crashed, 2);
  EXPECT_EQ(result.recovery.boards_rebooted, 2);
  EXPECT_GT(result.recovery.readmissions, 0);
  EXPECT_EQ(result.recovery.apps_lost, 0);
  EXPECT_EQ(result.completed, result.submitted);
  test::expect_app_conservation(result);

  // The race is deterministic: a second run reproduces it bit for bit,
  // including the FIFO re-admission order.
  auto again = metrics::run_cluster(suite, seq, options);
  expect_same_run(result, again, "crash-during-evacuation determinism");
}

}  // namespace
}  // namespace vs
