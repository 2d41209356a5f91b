// Workload inputs, the output digest and correctness gate, and the timed
// path: one call into a public driver (SweepRunner::run, run_cluster,
// run_serve) per workload, kernel options left at their defaults.
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "apps/benchmarks.h"
#include "driver.h"
#include "metrics/experiment.h"
#include "metrics/sweep.h"
#include "obs/telemetry.h"
#include "obs/trace_hub.h"
#include "serve/arrival.h"
#include "serve/serve.h"
#include "workload/patterns.h"

namespace e2e {

using namespace vs;

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

bool parse_workload(const std::string& name, Workload* out) {
  static const std::pair<const char*, Workload> kNames[] = {
      {"paper_grid", Workload::kPaperGrid},
      {"serve_fleet", Workload::kServeFleet},
      {"cluster_chaos", Workload::kClusterChaos},
      {"long_steady", Workload::kLongSteady},
  };
  for (const auto& [n, w] : kNames) {
    if (name == n) {
      *out = w;
      return true;
    }
  }
  return false;
}

namespace {

// Sizes. Full sizes give each run about a second or more of host work so
// the per-run medians are steady; tiny sizes are for the self-test.
constexpr int kGridSequences = 24;        // per congestion regime
constexpr int kGridSequencesTiny = 1;
constexpr int kServeBoards = 512;         // per fabric config (1024 total)
constexpr int kServeBoardsTiny = 8;
constexpr int kChaosCycles = 12;           // burst + relief cycles
constexpr int kChaosCyclesTiny = 1;
constexpr int kLongSteadyApps = 2000;
constexpr int kLongSteadyAppsTiny = 200;

/// The ext_multitenant three-tenant mix at `boards` per config over a 20 s
/// horizon: interactive (diurnal), standard (Poisson), batch (MMPP,
/// quota-capped). Two changes keep it steady from seed to seed: the rate
/// multiplier is 3 instead of 2 (at 2 the fleet sits at the edge of
/// saturation, where response times swing by tens of percent between
/// seeds), and the batch tenant's MMPP sojourns are 4x shorter at the same
/// duty cycle (ten burst cycles per horizon instead of two and a half, so
/// the arrival count no longer hinges on how many bursts one seed draws).
serve::ServeConfig serve_config(int boards, std::uint64_t seed) {
  const double horizon_s = 20.0;
  const double scale = 3.0 * static_cast<double>(boards);
  serve::ServeConfig config;
  config.seed = seed;
  config.horizon = sim::seconds(horizon_s);
  config.max_inflight = 3 * boards;
  config.classes = {
      {"interactive", sim::ms(2500.0), 0},
      {"standard", sim::ms(4000.0), 1},
      {"batch", sim::ms(12000.0), 2},
  };
  serve::Tenant interactive;
  interactive.name = "interactive";
  interactive.slo_class = 0;
  interactive.weight = 3.0;
  interactive.arrivals.kind = workload::ArrivalKind::kDiurnal;
  interactive.arrivals.rate_per_s = 0.25 * scale;
  interactive.arrivals.diurnal_depth = 0.6;
  interactive.arrivals.diurnal_period_s = horizon_s / 2.0;
  interactive.min_batch = 5;
  interactive.max_batch = 10;
  config.tenants.push_back(interactive);

  serve::Tenant standard;
  standard.name = "standard";
  standard.slo_class = 1;
  standard.weight = 2.0;
  standard.arrivals.kind = workload::ArrivalKind::kPoisson;
  standard.arrivals.rate_per_s = 0.15 * scale;
  standard.min_batch = 8;
  standard.max_batch = 20;
  config.tenants.push_back(standard);

  serve::Tenant batch;
  batch.name = "batch";
  batch.slo_class = 2;
  batch.weight = 1.0;
  batch.quota = boards;
  batch.defer_limit = boards;
  batch.arrivals.kind = workload::ArrivalKind::kMmpp;
  batch.arrivals.rate_per_s = 0.05 * scale;
  batch.arrivals.burst_rate_per_s = 0.6 * scale;
  batch.arrivals.burst_on_s = 0.5;
  batch.arrivals.burst_off_s = 1.5;
  batch.min_batch = 15;
  batch.max_batch = 30;
  config.tenants.push_back(batch);
  config.rebalance = true;
  return config;
}

}  // namespace

Inputs make_inputs(Workload w, std::uint64_t seed, bool tiny) {
  Inputs in;
  in.workload = w;
  in.suite = apps::make_suite(fpga::BoardParams{});
  const double t0 = now_s();
  switch (w) {
    case Workload::kPaperGrid: {
      const int n = tiny ? kGridSequencesTiny : kGridSequences;
      for (int ci = 0; ci < workload::kCongestionCount; ++ci) {
        workload::WorkloadConfig config;
        config.congestion = static_cast<workload::Congestion>(ci);
        config.apps_per_sequence = 20;
        in.grid.push_back(workload::generate_sequences(config, n, seed));
      }
      in.sweep_jobs = static_cast<int>(
          std::clamp(std::thread::hardware_concurrency(), 1U, 4U));
      break;
    }
    case Workload::kServeFleet: {
      const int boards = tiny ? kServeBoardsTiny : kServeBoards;
      in.serve = serve_config(boards, seed);
      in.serve_trace_size = static_cast<std::int64_t>(
          serve::generate_trace(in.serve, static_cast<int>(in.suite.size()))
              .size());
      in.cluster.boards_per_config = boards;
      in.cluster.enable_switching = false;
      break;
    }
    case Workload::kClusterChaos: {
      // Repeated Fig 8 cycles: a stress burst that drives D_switch up,
      // then standard relief that lets it fall back.
      std::vector<workload::Phase> phases;
      const int cycles = tiny ? kChaosCyclesTiny : kChaosCycles;
      for (int c = 0; c < cycles; ++c) {
        phases.push_back({30, workload::Congestion::kStress});
        phases.push_back({50, workload::Congestion::kStandard});
      }
      util::Rng rng(seed);
      in.sequence = workload::phased_sequence(phases, rng);
      const sim::SimTime end = in.sequence.back().arrival;
      faults::FaultScenario& f = in.cluster.faults;
      f.seed = seed;
      f.hazards.board_crash_per_s = 0.004;
      f.hazards.link_flap_per_s = 0.01;
      f.hazards.slot_seu_per_s = 0.02;
      f.horizon = end;
      in.cluster.checkpoint.enabled = true;
      in.cluster.checkpoint.delta = true;
      break;
    }
    case Workload::kLongSteady: {
      workload::WorkloadConfig config;
      config.congestion = workload::Congestion::kStandard;
      config.apps_per_sequence = tiny ? kLongSteadyAppsTiny : kLongSteadyApps;
      util::Rng rng(seed);
      in.sequence = workload::generate_sequence(config, rng);
      break;
    }
  }
  in.workload_gen_s = now_s() - t0;
  return in;
}

// ------------------------------------------------------------------ digest

void Digest::add(std::int64_t v) {
  auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    h_ ^= (u >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) {
  std::int64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  add(static_cast<std::int64_t>(s.size()));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void add_app(Outcome& o, const runtime::CompletedApp& c) {
  for (Digest* d : {&o.digest, &o.core_digest}) {
    d->add(static_cast<std::int64_t>(c.app_id));
    d->add(static_cast<std::int64_t>(c.spec_index));
    d->add(static_cast<std::int64_t>(c.tenant));
    d->add(c.arrival);
    d->add(c.completed);
  }
  sim::SimDuration sum = 0;
  for (sim::SimDuration p : c.phase_ns) {
    o.digest.add(p);
    sum += p;
  }
  if (o.phase_accounting && sum != c.completed - c.arrival &&
      o.gate_errors.size() < 8) {
    o.gate_errors.push_back("phase sum " + std::to_string(sum) +
                            " != response " +
                            std::to_string(c.completed - c.arrival));
  }
  o.response_ms.push_back(c.response_ms());
  ++o.completed;
}

void finish_outcome(Outcome& o) {
  if (!o.response_ms.empty()) o.response = util::summarize(o.response_ms);
  const std::int64_t accounted =
      o.completed + o.lost + o.shed + o.arrivals_shed + o.rejected;
  if (accounted != o.submitted) {
    o.gate_errors.push_back("conservation: completed " +
                            std::to_string(o.completed) + " + lost " +
                            std::to_string(o.lost) + " + shed " +
                            std::to_string(o.shed) + " + arrivals_shed " +
                            std::to_string(o.arrivals_shed) + " + rejected " +
                            std::to_string(o.rejected) + " != submitted " +
                            std::to_string(o.submitted));
  }
}

namespace {

void add_recovery(Outcome& o, const cluster::RecoveryStats& r) {
  for (Digest* d : {&o.digest, &o.core_digest}) {
    for (std::int64_t v :
         {r.boards_crashed, r.boards_rebooted, r.link_flaps, r.slot_seus,
          r.apps_evacuated, r.apps_checkpoint_restored, r.apps_restarted,
          r.apps_lost, r.apps_shed, r.readmissions, r.rack_events,
          r.spare_exhausted, r.arrivals_deferred, r.arrivals_shed,
          r.mttr_count}) {
      d->add(v);
    }
    d->add(r.mttr_total);
  }
  o.lost += r.apps_lost;
  o.shed += r.apps_shed;
  o.arrivals_shed += r.arrivals_shed;
}

}  // namespace

void add_cluster(Outcome& o, const std::vector<runtime::CompletedApp>& apps,
                 const std::vector<cluster::SwitchEvent>& switches,
                 std::size_t dswitch_samples, const cluster::RecoveryStats& r,
                 const runtime::CheckpointStats& ck, int submitted) {
  o.submitted += submitted;
  for (const runtime::CompletedApp& c : apps) add_app(o, c);
  for (Digest* d : {&o.digest, &o.core_digest}) {
    d->add(static_cast<std::int64_t>(dswitch_samples));
    for (const cluster::SwitchEvent& s : switches) {
      d->add(s.time);
      d->add(static_cast<std::int64_t>(s.to));
      d->add(static_cast<std::int64_t>(s.apps_migrated));
      d->add(s.bytes);
      d->add(s.overhead);
      d->add(s.downtime);
    }
    for (std::int64_t v : {ck.bases, ck.deltas, ck.compactions, ck.base_bytes,
                           ck.delta_bytes, ck.dirty_regions}) {
      d->add(v);
    }
  }
  add_recovery(o, r);
}

// -------------------------------------------------------------- public path

namespace {

Outcome fold_grid(const std::vector<metrics::RunResult>& cells) {
  Outcome o;
  o.phase_accounting = true;
  for (const metrics::RunResult& r : cells) {
    o.digest.add(r.system);
    o.core_digest.add(r.system);
    o.submitted += r.submitted;
    for (const runtime::CompletedApp& c : r.apps) add_app(o, c);
  }
  return o;
}

}  // namespace

Outcome fold_serve(const serve::ServeResult& r, std::int64_t trace_size) {
  Outcome o;
  if (r.arrivals != trace_size) {
    o.gate_errors.push_back("serve saw " + std::to_string(r.arrivals) +
                            " arrivals of a " + std::to_string(trace_size) +
                            "-arrival trace");
  }
  o.response = r.response_ms;
  o.submitted = r.arrivals;
  o.completed = r.completed;
  o.rejected = r.rejected;
  for (Digest* d : {&o.digest, &o.core_digest}) {
    for (const serve::TenantResult& t : r.tenants) {
      d->add(t.name);
      for (std::int64_t v : {t.submitted, t.admitted, t.deferred, t.rejected,
                             t.completed, t.slo_miss}) {
        d->add(v);
      }
    }
    for (const serve::ClassResult& c : r.classes) {
      d->add(c.completed);
      d->add(c.slo_miss);
      d->add(c.attainment);
      d->add(c.goodput_per_s);
      for (double v : {c.response_ms.mean, c.response_ms.p50,
                       c.response_ms.p95, c.response_ms.p99,
                       c.response_ms.p999, c.response_ms.max}) {
        d->add(v);
      }
    }
  }
  add_recovery(o, r.recovery);
  return o;
}

RunOutput run_public(const Inputs& in, const Capture& capture) {
  RunOutput out;
  switch (in.workload) {
    case Workload::kPaperGrid: {
      std::vector<metrics::SweepJob> grid;
      for (const auto& sequences : in.grid) {
        for (int k = 0; k < metrics::kSystemCount; ++k) {
          for (const workload::Sequence& seq : sequences) {
            metrics::RunOptions options;
            options.phase_accounting = true;
            grid.push_back(metrics::SweepJob{
                static_cast<metrics::SystemKind>(k), seq, options});
          }
        }
      }
      metrics::SweepRunner runner(in.sweep_jobs);
      out.outcome = fold_grid(runner.run(in.suite, grid));
      break;
    }
    case Workload::kServeFleet: {
      serve::ServeResult r = serve::run_serve(in.suite, in.serve, in.cluster);
      out.outcome = fold_serve(r, in.serve_trace_size);
      out.outcome.events = r.events;
      break;
    }
    case Workload::kClusterChaos:
    case Workload::kLongSteady: {
      cluster::ClusterOptions options = in.cluster;
      obs::Telemetry telemetry;
      obs::ClusterTraceHub hub;
      if (capture.on) {
        hub.enable_trace();
        hub.enable_journal();
        options.hub = &hub;
        options.phase_accounting = true;
      }
      metrics::ClusterRunResult r =
          metrics::run_cluster(in.suite, in.sequence, options,
                               sim::seconds(36000.0),
                               capture.on ? &telemetry : nullptr);
      out.outcome.phase_accounting = options.phase_accounting;
      add_cluster(out.outcome, r.apps, r.switches, r.dswitch_trace.size(),
                  r.recovery, r.checkpoint, r.submitted);
      out.outcome.events = r.events;
      if (capture.on) {
        telemetry.write_outputs(capture.prefix);
        hub.write_chrome_trace_file(capture.prefix + ".trace.json");
        hub.write_journal_file(capture.prefix + ".journal.jsonl");
      }
      break;
    }
  }
  finish_outcome(out.outcome);
  return out;
}

}  // namespace e2e
