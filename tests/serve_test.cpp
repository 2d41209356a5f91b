// Tests for the multi-tenant serving plane: weighted-deficit admission
// fairness under saturation, quota/defer-limit edges, SLO-aware priority
// ordering, SLO-miss accounting reconciled against phase-accounted
// response times, bit-identical results with telemetry on/off, and the
// recovery admission throttle holding
// arrivals behind a crash without losing any admitted work.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "apps/benchmarks.h"
#include "cluster/cluster.h"
#include "faults/scenario.h"
#include "obs/telemetry.h"
#include "serve/admission.h"
#include "serve/arrival.h"
#include "serve/resource_manager.h"
#include "serve/serve.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/rng.h"

namespace vs {
namespace {

using Action = serve::AdmissionController::Action;

serve::ServeArrival make_arrival(int tenant, double t_s = 0.0) {
  serve::ServeArrival a;
  a.tenant = tenant;
  a.app.spec_index = 0;
  a.app.batch = 5;
  a.app.arrival = sim::seconds(t_s);
  a.app.tenant = tenant;
  return a;
}

// ------------------------------------------------------ AdmissionController

TEST(ServeAdmission, WeightedDeficitDrainsTwoToOneUnderSaturation) {
  serve::ServeConfig config;
  config.classes = {{"c", sim::ms(2000.0), 0}};
  serve::Tenant heavy;
  heavy.name = "heavy";
  heavy.weight = 2.0;
  serve::Tenant light;
  light.name = "light";
  light.weight = 1.0;
  config.tenants = {heavy, light};
  config.max_inflight = 1;  // one slot: every drain is a scheduler decision

  serve::AdmissionController adm(config);
  std::vector<int> order;
  adm.set_dispatch([&](const serve::ServeArrival& a) {
    order.push_back(a.tenant);
  });

  // First arrival takes the only slot; everything after defers.
  ASSERT_EQ(adm.on_arrival(make_arrival(0)), Action::kAdmit);
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(adm.on_arrival(make_arrival(0)), Action::kDefer);
    ASSERT_EQ(adm.on_arrival(make_arrival(1)), Action::kDefer);
  }
  EXPECT_EQ(adm.queued(), 60);

  // Drain 30 slots; each completion frees exactly one and the weighted
  // deficit decides who gets it.
  order.clear();
  int running = 0;
  std::vector<int> drained;
  for (int i = 0; i < 30; ++i) {
    adm.on_complete(running);
    ASSERT_EQ(order.size(), static_cast<std::size_t>(i + 1));
    running = order.back();
    drained.push_back(running);
  }
  auto heavy_n = std::count(drained.begin(), drained.end(), 0);
  auto light_n = std::count(drained.begin(), drained.end(), 1);
  // 2:1 weights under saturation admit exactly 2:1 (DRR with unit cost).
  EXPECT_EQ(heavy_n, 20);
  EXPECT_EQ(light_n, 10);
  // ...and in the canonical DRR cadence: heavy, heavy, light, repeating.
  for (std::size_t i = 0; i + 2 < drained.size(); i += 3) {
    EXPECT_EQ(drained[i], 0);
    EXPECT_EQ(drained[i + 1], 0);
    EXPECT_EQ(drained[i + 2], 1);
  }
}

TEST(ServeAdmission, QuotaDefersAndDeferLimitRejects) {
  serve::ServeConfig config;
  config.classes = {{"c", sim::ms(2000.0), 0}};
  serve::Tenant t;
  t.name = "capped";
  t.quota = 1;
  t.defer_limit = 2;
  config.tenants = {t};

  serve::AdmissionController adm(config);
  int dispatched = 0;
  adm.set_dispatch([&](const serve::ServeArrival&) { ++dispatched; });

  EXPECT_EQ(adm.on_arrival(make_arrival(0)), Action::kAdmit);
  EXPECT_EQ(adm.on_arrival(make_arrival(0)), Action::kDefer);
  EXPECT_EQ(adm.on_arrival(make_arrival(0)), Action::kDefer);
  EXPECT_EQ(adm.on_arrival(make_arrival(0)), Action::kReject);
  EXPECT_EQ(dispatched, 1);
  EXPECT_EQ(adm.queued(), 2);
  const auto& state = adm.tenants()[0];
  EXPECT_EQ(state.submitted, 4);
  EXPECT_EQ(state.admitted, 1);
  EXPECT_EQ(state.deferred, 2);
  EXPECT_EQ(state.rejected, 1);

  // A completion frees the quota slot and pumps exactly one deferral; the
  // emptied slot in the defer queue makes the next arrival defer again.
  adm.on_complete(0);
  EXPECT_EQ(dispatched, 2);
  EXPECT_EQ(adm.queued(), 1);
  EXPECT_EQ(adm.on_arrival(make_arrival(0)), Action::kDefer);
}

TEST(ServeAdmission, LowerPriorityValueDrainsFirstRegardlessOfWeight) {
  serve::ServeConfig config;
  config.classes = {{"urgent", sim::ms(500.0), 0},
                    {"bulk", sim::ms(10000.0), 1}};
  serve::Tenant bulk;  // tenant 0: huge weight, low-priority class
  bulk.name = "bulk";
  bulk.slo_class = 1;
  bulk.weight = 100.0;
  serve::Tenant urgent;  // tenant 1: tiny weight, high-priority class
  urgent.name = "urgent";
  urgent.slo_class = 0;
  urgent.weight = 1.0;
  config.tenants = {bulk, urgent};
  config.max_inflight = 1;

  serve::AdmissionController adm(config);
  std::vector<int> order;
  adm.set_dispatch([&](const serve::ServeArrival& a) {
    order.push_back(a.tenant);
  });
  ASSERT_EQ(adm.on_arrival(make_arrival(0)), Action::kAdmit);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(adm.on_arrival(make_arrival(0)), Action::kDefer);
    ASSERT_EQ(adm.on_arrival(make_arrival(1)), Action::kDefer);
  }

  order.clear();
  int running = 0;
  for (int i = 0; i < 10; ++i) {
    adm.on_complete(running);
    running = order.back();
  }
  // Priority trumps weight: all five urgent jobs before any bulk job.
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], 1);
  for (int i = 5; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], 0);
}

// ------------------------------------------------------------- integration

// A two-tenant mix small enough for fast tests: a Poisson foreground class
// and an MMPP-bursty background class whose burst windows exercise the
// state-switch boundaries of the arrival generator.
serve::ServeConfig small_config(double horizon_s = 8.0) {
  serve::ServeConfig config;
  config.seed = 2025;
  config.horizon = sim::seconds(horizon_s);
  config.max_inflight = 6;
  config.classes = {{"interactive", sim::ms(2500.0), 0},
                    {"batch", sim::ms(12000.0), 1}};
  serve::Tenant fg;
  fg.name = "fg";
  fg.slo_class = 0;
  fg.weight = 2.0;
  fg.arrivals.kind = workload::ArrivalKind::kPoisson;
  fg.arrivals.rate_per_s = 1.5;
  fg.min_batch = 5;
  fg.max_batch = 10;
  config.tenants.push_back(fg);
  serve::Tenant bg;
  bg.name = "bg";
  bg.slo_class = 1;
  bg.weight = 1.0;
  bg.quota = 4;
  bg.defer_limit = 16;
  bg.arrivals.kind = workload::ArrivalKind::kMmpp;
  bg.arrivals.rate_per_s = 0.3;
  bg.arrivals.burst_rate_per_s = 2.0;
  bg.arrivals.burst_on_s = 1.0;
  bg.arrivals.burst_off_s = 3.0;
  bg.min_batch = 8;
  bg.max_batch = 16;
  config.tenants.push_back(bg);
  return config;
}

cluster::ClusterOptions small_options() {
  cluster::ClusterOptions options;
  options.boards_per_config = 2;
  options.enable_switching = false;
  return options;
}

// Full-result equality; `events` excluded (the telemetry sampler schedules
// its own events). Doubles compare bitwise — the claim is bit-identity,
// not tolerance.
void expect_results_equal(const serve::ServeResult& a,
                          const serve::ServeResult& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.response_ms.count, b.response_ms.count);
  EXPECT_EQ(a.response_ms.mean, b.response_ms.mean);
  EXPECT_EQ(a.response_ms.p50, b.response_ms.p50);
  EXPECT_EQ(a.response_ms.p99, b.response_ms.p99);
  EXPECT_EQ(a.response_ms.p999, b.response_ms.p999);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].submitted, b.tenants[i].submitted);
    EXPECT_EQ(a.tenants[i].admitted, b.tenants[i].admitted);
    EXPECT_EQ(a.tenants[i].deferred, b.tenants[i].deferred);
    EXPECT_EQ(a.tenants[i].rejected, b.tenants[i].rejected);
    EXPECT_EQ(a.tenants[i].completed, b.tenants[i].completed);
    EXPECT_EQ(a.tenants[i].slo_miss, b.tenants[i].slo_miss);
  }
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t i = 0; i < a.classes.size(); ++i) {
    EXPECT_EQ(a.classes[i].completed, b.classes[i].completed);
    EXPECT_EQ(a.classes[i].slo_miss, b.classes[i].slo_miss);
    EXPECT_EQ(a.classes[i].attainment, b.classes[i].attainment);
    EXPECT_EQ(a.classes[i].goodput_per_s, b.classes[i].goodput_per_s);
    EXPECT_EQ(a.classes[i].response_ms.mean, b.classes[i].response_ms.mean);
    EXPECT_EQ(a.classes[i].response_ms.p99, b.classes[i].response_ms.p99);
  }
}

TEST(ServePlane, TelemetryOnOffBitIdenticalAndCountersMatch) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  serve::ServeConfig config = small_config();
  config.rebalance = true;  // cover the rebalance trigger path too

  auto bare = serve::run_serve(suite, config, small_options());
  obs::Telemetry telemetry;
  auto instrumented = serve::run_serve(suite, config, small_options(),
                                       sim::seconds(36000.0), &telemetry);
  // `events` differs by design: the telemetry sampler schedules its own
  // snapshot events. Everything observable must still be bit-identical.
  expect_results_equal(bare, instrumented);

  // The vs_tenant_* instruments agree with the collected result.
  obs::MetricsRegistry& reg = telemetry.registry();
  for (const serve::TenantResult& t : instrumented.tenants) {
    obs::Labels labels{{"tenant", t.name}};
    EXPECT_EQ(reg.counter("vs_tenant_admitted_total", labels).value(),
              t.admitted);
    EXPECT_EQ(reg.counter("vs_tenant_deferred_total", labels).value(),
              t.deferred);
    EXPECT_EQ(reg.counter("vs_tenant_rejected_total", labels).value(),
              t.rejected);
    EXPECT_EQ(reg.counter("vs_tenant_completed_total", labels).value(),
              t.completed);
    EXPECT_EQ(reg.counter("vs_tenant_slo_miss_total", labels).value(),
              t.slo_miss);
  }
}

TEST(ServePlane, SloMissAccountingMatchesPhaseAccountedResponses) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  serve::ServeConfig config = small_config();
  // Tighten the interactive target below the intrinsic service time so the
  // run produces real misses to reconcile.
  config.classes[0].latency_target = sim::ms(600.0);

  sim::Simulator sim;
  cluster::ClusterOptions options = small_options();
  options.phase_accounting = true;
  cluster::Cluster cluster(sim, suite, options);
  serve::ResourceManager manager(sim, cluster, config);
  manager.start(static_cast<int>(suite.size()));
  sim.run(sim::seconds(36000.0));

  // Recompute every tenant's completion and SLO-miss counts from the
  // phase-accounted completion records and reconcile with the manager.
  std::vector<std::int64_t> done(config.tenants.size(), 0);
  std::vector<std::int64_t> miss(config.tenants.size(), 0);
  for (const runtime::CompletedApp& c : cluster.completed()) {
    ASSERT_GE(c.tenant, 0);  // every job in this run is tenant-attributed
    sim::SimDuration phase_sum = 0;
    for (sim::SimDuration d : c.phase_ns) phase_sum += d;
    // The phase account sums exactly to the response time...
    ASSERT_EQ(phase_sum, c.completed - c.arrival);
    auto i = static_cast<std::size_t>(c.tenant);
    ++done[i];
    // ...so the SLO verdict recomputed from the phase account must match
    // the manager's response-based accounting.
    auto cls = static_cast<std::size_t>(config.tenants[i].slo_class);
    if (sim::to_ms(phase_sum) >
        sim::to_ms(config.classes[cls].latency_target)) {
      ++miss[i];
    }
  }
  const auto& counters = manager.tenant_counters();
  std::int64_t total_miss = 0;
  for (std::size_t i = 0; i < counters.size(); ++i) {
    EXPECT_EQ(counters[i].completed, done[i]);
    EXPECT_EQ(counters[i].slo_miss, miss[i]);
    EXPECT_EQ(counters[i].response_ms.size(),
              static_cast<std::size_t>(done[i]));
    total_miss += miss[i];
  }
  EXPECT_GT(total_miss, 0);  // the tightened target actually bites
}

TEST(ServePlane, RecoveryThrottleDefersArrivalsWithoutLosingApps) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);

  serve::ServeConfig config;
  config.seed = 2025;
  config.horizon = sim::seconds(8.0);
  config.classes = {{"c", sim::ms(30000.0), 0}};
  serve::Tenant t;
  t.name = "t";
  t.arrivals.kind = workload::ArrivalKind::kPoisson;
  t.arrivals.rate_per_s = 4.0;
  t.min_batch = 5;
  t.max_batch = 10;
  config.tenants = {t};

  // Both pools' single boards go down mid-trace (the spare first, so the
  // active board's crash cannot fail over): the displaced apps sit in the
  // readmission queue until a reboot, and the kDefer throttle holds the
  // open-loop arrivals that land during that window behind them.
  cluster::ClusterOptions options = small_options();
  options.boards_per_config = 1;
  options.faults.timeline = {
      {sim::seconds(2.0), faults::FaultKind::kBoardCrash, 1, -1},
      {sim::seconds(2.1), faults::FaultKind::kBoardCrash, 0, -1}};
  options.recovery.throttle = cluster::RecoveryOptions::Throttle::kDefer;

  auto r = serve::run_serve(suite, config, options);
  EXPECT_EQ(r.recovery.boards_crashed, 2);
  EXPECT_EQ(r.recovery.boards_rebooted, 2);
  EXPECT_GT(r.recovery.arrivals_deferred, 0);
  EXPECT_EQ(r.recovery.arrivals_shed, 0);
  EXPECT_GT(r.recovery.readmissions, 0);

  // Recovery and the throttle interact without losing anything: every
  // admitted job eventually completes (evacuated, readmitted, or throttled
  // into the readmission queue and drained after the reboot).
  EXPECT_EQ(r.recovery.apps_lost, 0);
  EXPECT_GT(r.admitted, 0);
  EXPECT_EQ(r.completed, r.admitted);
  for (const serve::TenantResult& tr : r.tenants) {
    EXPECT_EQ(tr.completed, tr.admitted);
  }
}

// ------------------------------------------------------------ ServeRouting

/// The routing scan the pool's load cells replaced, kept as the oracle: the
/// first minimum, in pool order, of 2*active_apps minus one when some live
/// app on the board has `warm_spec`.
runtime::BoardRuntime* scan_pick(cluster::Cluster& cluster, int warm_spec) {
  runtime::BoardRuntime* best = nullptr;
  int best_score = 0;
  for (int i = 0; i < cluster.active_board_count(); ++i) {
    runtime::BoardRuntime& rt = cluster.active_runtime(i);
    int score = 2 * rt.active_apps();
    for (int id : rt.live_ids()) {
      if (rt.app(id).spec_index == warm_spec) {
        score -= 1;
        break;
      }
    }
    if (best == nullptr || score < best_score) {
      best = &rt;
      best_score = score;
    }
  }
  return best;
}

TEST(ServeRouting, CellPickMatchesRuntimeScan) {
  fpga::BoardParams params;
  const auto suite = apps::make_suite(params);
  const int specs = static_cast<int>(suite.size());
  int switched = 0, crashed = 0, reboots = 0, warm_mattered = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    util::Rng rng(seed);
    const int boards = static_cast<int>(rng.uniform_int(1, 64));
    cluster::ClusterOptions options;
    options.boards_per_config = boards;
    // The first D_switch sample switches to Big.Little and nothing switches
    // back: the Only.Little boards leave the pool and keep completing the
    // apps they drain, which must no longer touch any pool cell.
    options.t1 = 0.0;
    options.t2 = -1.0;
    options.warmup_samples = 0;
    options.min_queue_for_switch = 0;
    options.dswitch_period = static_cast<int>(rng.uniform_int(10, 40));
    // One scripted crash per pool at the same instant: whichever pool is
    // active loses a member, and the reboot appends it back.
    const int victim = static_cast<int>(rng.uniform_int(0, boards - 1));
    const sim::SimTime crash_at = sim::ms(rng.uniform01() * 300.0 + 20.0);
    options.faults.timeline = {
        {crash_at, faults::FaultKind::kBoardCrash, victim, -1},
        {crash_at, faults::FaultKind::kBoardCrash, boards + victim, -1}};
    options.faults.repair.board_reboot = sim::ms(150.0);

    sim::Simulator sim;
    cluster::Cluster cluster(sim, suite, options);
    // Each board's D_switch window (blocked events, PRs) and cumulative
    // counts at the previous check; a board first seen starts from zero.
    std::map<const runtime::BoardRuntime*, std::array<std::int64_t, 4>>
        last_window;
    std::size_t samples = 0;
    auto check = [&](int step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      const bool sampled = cluster.dswitch().trace().size() != samples;
      samples = cluster.dswitch().trace().size();
      // Each member's cell holds its live set: a departed board that still
      // wrote to its old position would corrupt a current member's cell.
      for (int i = 0; i < cluster.active_board_count(); ++i) {
        const runtime::BoardRuntime& rt = cluster.active_runtime(i);
        ASSERT_NE(rt.load_cell(), nullptr) << "position " << i;
        const runtime::LoadCell& cell = *rt.load_cell();
        runtime::LoadCell recount{rt.active_apps(), 0, 0, cell.blocked,
                                  cell.prs};
        for (int id : rt.live_ids()) {
          recount.batch += rt.app(id).batch;
          recount.specs |= std::uint64_t{1} << rt.app(id).spec_index;
        }
        EXPECT_EQ(cell, recount) << "position " << i;
        // The window: with no sample taken since the previous check it
        // grew by exactly the board's new events; a sample since then
        // restarted it from zero, so it holds at most those events.
        const runtime::RuntimeCounters& c = rt.counters();
        const std::array<std::int64_t, 4> now{
            cell.blocked, cell.prs, c.pr_blocked + c.launch_blocked,
            c.pr_requests};
        const std::array<std::int64_t, 4> before = last_window[&rt];
        for (std::size_t f = 0; f < 2; ++f) {
          const std::int64_t fresh = now[f + 2] - before[f + 2];
          const bool grew = now[f] == before[f] + fresh;
          EXPECT_TRUE(grew || (sampled && now[f] >= 0 && now[f] <= fresh))
              << "position " << i << (f == 0 ? " blocked " : " prs ")
              << now[f] << ", was " << before[f] << ", new events "
              << fresh << (sampled ? ", sampled" : "");
        }
        last_window[&rt] = now;
      }
      EXPECT_EQ(cluster.least_loaded_or_null(), scan_pick(cluster, -1));
      for (int spec = 0; spec < specs; ++spec) {
        runtime::BoardRuntime* pick = cluster.least_loaded_or_null(spec);
        EXPECT_EQ(pick, scan_pick(cluster, spec)) << "spec " << spec;
        warm_mattered += pick != cluster.least_loaded_or_null() ? 1 : 0;
      }
    };

    for (int step = 0; step < 200; ++step) {
      const int pool = cluster.active_board_count();
      auto member = [&]() -> runtime::BoardRuntime& {
        return cluster.active_runtime(
            static_cast<int>(rng.uniform_int(0, pool - 1)));
      };
      const int spec = static_cast<int>(rng.uniform_int(0, specs - 1));
      const int batch = static_cast<int>(rng.uniform_int(1, 4));
      switch (rng.uniform_int(0, 6)) {
        case 0:
        case 1:
          // Uneven admissions straight onto one member.
          if (pool > 0) {
            member().submit(suite[static_cast<std::size_t>(spec)], spec, batch,
                            sim.now());
          }
          break;
        case 2: {
          // Routed arrivals: counted as queue updates, so they drive the
          // D_switch sampling that triggers the switch.
          apps::AppArrival a;
          a.spec_index = spec;
          a.batch = batch;
          a.arrival = sim.now();
          cluster.dispatch_arrival(a, rng.bernoulli(0.5) ? spec : -1);
          break;
        }
        case 3:
          if (pool > 0) (void)member().extract_unstarted();
          break;
        case 4:
          if (pool > 0) (void)member().extract_migratable();
          break;
        default:
          // Completions, the switch's landing, the crash and the reboot all
          // happen inside simulated time.
          sim.run(sim.now() + sim::ms(rng.uniform01() * 40.0));
          break;
      }
      check(step);
    }
    sim.run();
    check(200);
    switched += cluster.switches().empty() ? 0 : 1;
    crashed += cluster.recovery_stats().boards_crashed > 0 ? 1 : 0;
    reboots += cluster.recovery_stats().boards_rebooted > 0 ? 1 : 0;
  }
  // The scenario exercised what it claims to: pool departures by switch
  // and by crash, appends by reboot, and picks the affinity bonus changed.
  EXPECT_GT(switched, 0);
  EXPECT_GT(crashed, 0);
  EXPECT_GT(reboots, 0);
  EXPECT_GT(warm_mattered, 0);
}

}  // namespace
}  // namespace vs
