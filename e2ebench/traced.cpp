// Traced drivers: the same simulations as the public path, assembled from
// the modules' public classes so each layer's calls can be timed from the
// outside. Every traced driver must reproduce the public driver's digest
// (the caller checks), so the per-layer numbers describe the measured run.
#include <algorithm>
#include <fstream>
#include <memory>

#include "driver.h"
#include "fpga/board.h"
#include "metrics/experiment.h"
#include "metrics/sweep.h"
#include "obs/telemetry.h"
#include "obs/trace_hub.h"
#include "serve/resource_manager.h"
#include "sim/simulator.h"

namespace e2e {

using namespace vs;

// ------------------------------------------------------------------ tracer

int Tracer::begin(const std::string& name, int parent, int run) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, t, t, parent, run});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end_s = t;
}

double Tracer::duration(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  return s.end_s - s.start_s;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
        << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

namespace {

/// RAII span; close() ends it early and returns its duration.
class Scoped {
 public:
  Scoped(Tracer& t, const std::string& name, int parent = -1, int run = -1)
      : t_(t), id_(t.begin(name, parent, run)) {}
  ~Scoped() { close(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }
  double close() {
    if (open_) t_.end(id_);
    open_ = false;
    return t_.duration(id_);
  }

 private:
  Tracer& t_;
  int id_;
  bool open_ = true;
};

double ns_since(double t0) { return (now_s() - t0) * 1e9; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Timing decorator over a scheduler policy: forwards every call and
/// accumulates host time spent in on_pass.
class TimedPolicy final : public runtime::SchedulerPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<runtime::SchedulerPolicy> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] bool dual_core() const override { return inner_->dual_core(); }
  void attach(runtime::BoardRuntime& rt) override { inner_->attach(rt); }
  void bind_metrics(obs::MetricsRegistry& r, const std::string& b) override {
    inner_->bind_metrics(r, b);
  }
  void on_app_submitted(runtime::BoardRuntime& rt, int app_id) override {
    inner_->on_app_submitted(rt, app_id);
  }
  void on_pass(runtime::BoardRuntime& rt) override {
    const double t0 = now_s();
    inner_->on_pass(rt);
    ns += ns_since(t0);
    ++passes;
  }

  double ns = 0;
  std::int64_t passes = 0;

 private:
  std::unique_ptr<runtime::SchedulerPolicy> inner_;
};

/// Phase means over every completed app (simulated ms per app).
void add_phase_layers(const Outcome& o,
                      const std::vector<const runtime::CompletedApp*>& apps,
                      Layers& l) {
  static const char* kNames[runtime::kAppPhaseCount] = {
      "queue_wait", "reconfig", "exec", "paused", "migration", "recovery"};
  for (std::size_t p = 0; p < runtime::kAppPhaseCount; ++p) {
    double sum = 0;
    for (const runtime::CompletedApp* c : apps) sum += sim::to_ms(c->phase_ns[p]);
    l[std::string("runtime.phase.") + kNames[p] + "_ms"] =
        o.phase_accounting ? ratio(sum, static_cast<double>(apps.size())) : 0;
  }
}

/// Runs `sim` to completion in simulated-time slices, timing each slice
/// against the completions it produced. Fills sim.* and the history
/// metrics (runtime.ns_per_app_first/last, runtime.history_growth).
template <typename Completed>
void run_sliced(sim::Simulator& sim, sim::SimTime span, Completed completed,
                Tracer& tracer, int parent, int run, Layers& l) {
  const sim::SimDuration slice = std::max<sim::SimDuration>(span / 128, sim::ms(1.0));
  struct Slice {
    double ns;
    std::size_t done;
  };
  std::vector<Slice> slices;
  sim::SimTime t = 0;
  double total_ns = 0;
  while (!sim.idle() && t < sim::seconds(36000.0)) {
    t += slice;
    const std::size_t before = completed();
    Scoped s(tracer, "sim.run_slice", parent, run);
    const double t0 = now_s();
    sim.run(t);
    const double ns = ns_since(t0);
    total_ns += ns;
    slices.push_back({ns, completed() - before});
  }
  const auto events = static_cast<double>(sim.events_executed());
  l["sim.events"] = events;
  l["sim.ns_per_event"] = ratio(total_ns, events);
  // Host ns per completed app over the first and the last tenth of the
  // completions: grows when per-event cost grows with run history.
  const std::size_t total = completed();
  const std::size_t tenth = std::max<std::size_t>(total / 10, 1);
  auto decile = [&](auto begin, auto end) {
    double ns = 0;
    std::size_t done = 0;
    for (auto it = begin; it != end && done < tenth; ++it) {
      ns += it->ns;
      done += it->done;
    }
    return ratio(ns, static_cast<double>(done));
  };
  const double first = decile(slices.begin(), slices.end());
  const double last = decile(slices.rbegin(), slices.rend());
  l["runtime.ns_per_app_first"] = first;
  l["runtime.ns_per_app_last"] = last;
  l["runtime.history_growth"] = ratio(last, first);
}

void add_cluster_layers(const std::vector<cluster::SwitchEvent>& switches,
                        std::size_t dswitch_samples,
                        const cluster::RecoveryStats& r,
                        const runtime::CheckpointStats& ck, Layers& l) {
  double migrated = 0, downtime = 0;
  for (const cluster::SwitchEvent& s : switches) {
    migrated += s.apps_migrated;
    downtime += sim::to_ms(s.downtime);
  }
  l["cluster.switches"] = static_cast<double>(switches.size());
  l["cluster.migrated_apps"] = migrated;
  l["cluster.dswitch_samples"] = static_cast<double>(dswitch_samples);
  l["cluster.downtime_ms_mean"] =
      ratio(downtime, static_cast<double>(switches.size()));
  const double saved = r.apps_evacuated + r.apps_checkpoint_restored;
  const double displaced =
      saved + r.apps_restarted + r.apps_lost + r.apps_shed;
  l["faults.injected"] =
      r.boards_crashed + r.link_flaps + r.slot_seus + r.rack_events;
  l["faults.saved_frac"] = ratio(saved, displaced);
  l["faults.mttr_ms"] = r.mttr_ms_mean();
  l["runtime.ckpt_bytes"] = static_cast<double>(ck.total_bytes());
  l["runtime.ckpt_passes"] = static_cast<double>(ck.bases + ck.deltas);
}

// ---------------------------------------------------------------- paper_grid

struct Cell {
  std::vector<runtime::CompletedApp> apps;
  runtime::RuntimeCounters counters;
  std::uint64_t events = 0;
  double host_ns = 0;
  double pass_ns = 0;
  std::int64_t passes = 0;
  bool versaslot = false;
  std::string system;
  int submitted = 0;
};

/// One single-board replica, built the way metrics::run_single_board
/// builds a fault-free run, with the policy behind the timing decorator.
Cell run_cell(metrics::SystemKind kind, const std::vector<apps::AppSpec>& suite,
              const workload::Sequence& seq) {
  Cell cell;
  cell.system = metrics::system_name(kind);
  cell.submitted = static_cast<int>(seq.size());
  cell.versaslot = kind == metrics::SystemKind::kVersaOnlyLittle ||
                   kind == metrics::SystemKind::kVersaBigLittle;
  const double t0 = now_s();
  sim::Simulator sim;
  fpga::Board board(sim, "fpga0", metrics::fabric_for(kind),
                    fpga::BoardParams{});
  TimedPolicy policy(metrics::make_policy(kind));
  runtime::BoardRuntime rt(board, policy);
  rt.enable_phase_accounting();
  for (const apps::AppArrival& a : seq) {
    sim.schedule_at(a.arrival, [&rt, &suite, a] {
      rt.submit(suite.at(static_cast<std::size_t>(a.spec_index)),
                a.spec_index, a.batch, a.arrival, a.item_interval);
    });
  }
  sim.run(sim::seconds(36000.0));
  cell.apps = rt.completed();
  cell.counters = rt.counters();
  cell.events = sim.events_executed();
  cell.pass_ns = policy.ns;
  cell.passes = policy.passes;
  cell.host_ns = ns_since(t0);
  return cell;
}

RunOutput traced_grid(const Inputs& in, Tracer& tracer) {
  struct Job {
    metrics::SystemKind kind;
    const workload::Sequence* seq;
  };
  std::vector<Job> jobs;
  for (const auto& sequences : in.grid) {
    for (int k = 0; k < metrics::kSystemCount; ++k) {
      for (const workload::Sequence& seq : sequences) {
        jobs.push_back({static_cast<metrics::SystemKind>(k), &seq});
      }
    }
  }
  metrics::SweepRunner runner(in.sweep_jobs);
  Scoped map_span(tracer, "metrics.map");
  std::vector<double> cell_s(jobs.size());
  std::vector<Cell> cells = runner.map<Cell>(jobs.size(), [&](std::size_t i) {
    Scoped s(tracer, "runtime.single_board", map_span.id(), static_cast<int>(i));
    Cell c = run_cell(jobs[i].kind, in.suite, *jobs[i].seq);
    cell_s[i] = c.host_ns * 1e-9;
    return c;
  });
  const double map_s = map_span.close();

  RunOutput out;
  Outcome& o = out.outcome;
  o.phase_accounting = true;
  Layers& l = out.layers;
  double events = 0, host_ns = 0, core_ns = 0, base_ns = 0, core_passes = 0,
         base_passes = 0, pr = 0, pr_blocked = 0, preempt = 0;
  std::vector<const runtime::CompletedApp*> all;
  for (const Cell& c : cells) {
    o.digest.add(c.system);
    o.core_digest.add(c.system);
    o.submitted += c.submitted;
    for (const runtime::CompletedApp& a : c.apps) {
      add_app(o, a);
      all.push_back(&a);
    }
    events += static_cast<double>(c.events);
    host_ns += c.host_ns;
    (c.versaslot ? core_ns : base_ns) += c.pass_ns;
    (c.versaslot ? core_passes : base_passes) += static_cast<double>(c.passes);
    pr += static_cast<double>(c.counters.pr_requests);
    pr_blocked += static_cast<double>(c.counters.pr_blocked);
    preempt += static_cast<double>(c.counters.preemptions);
  }
  o.events = static_cast<std::uint64_t>(events);
  l["sim.events"] = events;
  l["sim.ns_per_event"] = ratio(host_ns, events);
  std::vector<double> sorted = cell_s;
  std::sort(sorted.begin(), sorted.end());
  l["metrics.cell_p50_ms"] = sorted.empty() ? 0 : sorted[sorted.size() / 2] * 1e3;
  l["metrics.cell_max_ms"] = sorted.empty() ? 0 : sorted.back() * 1e3;
  double busy = 0;
  for (double s : cell_s) busy += s;
  l["metrics.worker_idle_frac"] =
      1.0 - ratio(busy, map_s * static_cast<double>(runner.jobs()));
  l["core.pass_ns"] = ratio(core_ns, core_passes);
  l["baselines.pass_ns"] = ratio(base_ns, base_passes);
  l["core.passes"] = core_passes;
  l["baselines.passes"] = base_passes;
  l["runtime.pr_blocked_frac"] = ratio(pr_blocked, pr);
  l["runtime.preemptions_per_app"] = ratio(preempt, static_cast<double>(o.completed));
  add_phase_layers(o, all, l);
  return out;
}

// --------------------------------------------------------------- serve_fleet

/// ServeResult from a hand-assembled cluster + resource manager, collected
/// exactly as serve::run_serve collects it.
serve::ServeResult collect_serve(const cluster::Cluster& cluster,
                                 const serve::ResourceManager& manager,
                                 const serve::ServeConfig& config) {
  serve::ServeResult result;
  result.arrivals = manager.arrivals();
  result.completed = manager.completions();
  result.recovery = cluster.recovery_stats();
  const auto& admission = manager.admission().tenants();
  const auto& counters = manager.tenant_counters();
  std::vector<std::vector<double>> class_responses(config.classes.size());
  std::vector<double> all;
  for (std::size_t i = 0; i < config.tenants.size(); ++i) {
    serve::TenantResult t;
    t.name = config.tenants[i].name;
    t.slo_class = config.tenants[i].slo_class;
    t.submitted = admission[i].submitted;
    t.admitted = admission[i].admitted;
    t.deferred = admission[i].deferred;
    t.rejected = admission[i].rejected;
    t.completed = counters[i].completed;
    t.slo_miss = counters[i].slo_miss;
    result.admitted += t.admitted;
    result.rejected += t.rejected;
    auto& cls = class_responses[static_cast<std::size_t>(t.slo_class)];
    cls.insert(cls.end(), counters[i].response_ms.begin(),
               counters[i].response_ms.end());
    all.insert(all.end(), counters[i].response_ms.begin(),
               counters[i].response_ms.end());
    result.tenants.push_back(std::move(t));
  }
  const double horizon_s = sim::to_seconds(config.horizon);
  for (std::size_t c = 0; c < config.classes.size(); ++c) {
    serve::ClassResult r;
    r.name = config.classes[c].name;
    for (const serve::TenantResult& t : result.tenants) {
      if (static_cast<std::size_t>(t.slo_class) != c) continue;
      r.completed += t.completed;
      r.slo_miss += t.slo_miss;
    }
    if (r.completed > 0) {
      r.attainment = static_cast<double>(r.completed - r.slo_miss) /
                     static_cast<double>(r.completed);
    }
    if (horizon_s > 0) {
      r.goodput_per_s = static_cast<double>(r.completed - r.slo_miss) / horizon_s;
    }
    r.response_ms = util::summarize(class_responses[c]);
    result.classes.push_back(std::move(r));
  }
  result.response_ms = util::summarize(all);
  return result;
}

RunOutput traced_serve(const Inputs& in, Tracer& tracer) {
  RunOutput out;
  Layers& l = out.layers;
  Scoped run_span(tracer, "serve.run", -1, 0);
  sim::Simulator sim;
  cluster::Cluster cluster(sim, in.suite, in.cluster);
  serve::ResourceManager manager(sim, cluster, in.serve);
  {
    Scoped s(tracer, "serve.start", run_span.id(), 0);
    manager.start(static_cast<int>(in.suite.size()));
    l["serve.start_s"] = s.close();
  }
  run_sliced(sim, in.serve.horizon, [&] { return cluster.completed().size(); },
             tracer, run_span.id(), 0, l);
  serve::ServeResult r = collect_serve(cluster, manager, in.serve);
  out.outcome = fold_serve(r, in.serve_trace_size);
  out.outcome.events = sim.events_executed();
  std::int64_t deferred = 0;
  for (const serve::TenantResult& t : r.tenants) deferred += t.deferred;
  l["serve.arrivals"] = static_cast<double>(r.arrivals);
  l["serve.admit_frac"] =
      ratio(static_cast<double>(r.admitted), static_cast<double>(r.arrivals));
  l["serve.deferred"] = static_cast<double>(deferred);
  l["serve.rejected"] = static_cast<double>(r.rejected);
  l["serve.interactive_attainment"] = r.classes.at(0).attainment;
  add_cluster_layers(cluster.switches(), cluster.dswitch().trace().size(),
                     r.recovery, cluster.checkpoint_stats(), l);
  return out;
}

// ------------------------------------------------- cluster_chaos, long_steady

RunOutput traced_cluster(const Inputs& in, const Capture& capture,
                         Tracer& tracer, int run) {
  RunOutput out;
  Layers& l = out.layers;
  Scoped run_span(tracer, capture.on ? "cluster.run_captured" : "cluster.run",
                  -1, run);
  cluster::ClusterOptions options = in.cluster;
  obs::Telemetry telemetry;
  obs::ClusterTraceHub hub;
  if (capture.on) {
    options.metrics = &telemetry.registry();
    telemetry.info().experiment = "cluster";
    hub.enable_trace();
    hub.enable_journal();
    options.hub = &hub;
    options.phase_accounting = true;
  }
  sim::Simulator sim;
  cluster::Cluster cluster(sim, in.suite, options);
  if (capture.on) telemetry.start_sampling(sim);
  cluster.submit_sequence(in.sequence);
  run_sliced(sim, in.sequence.back().arrival,
             [&] { return cluster.completed().size(); }, tracer, run_span.id(),
             run, l);
  if (capture.on) hub.seal();

  Outcome& o = out.outcome;
  o.phase_accounting = options.phase_accounting;
  add_cluster(o, cluster.completed(), cluster.switches(),
              cluster.dswitch().trace().size(), cluster.recovery_stats(),
              cluster.checkpoint_stats(), cluster.submitted());
  o.events = sim.events_executed();
  add_cluster_layers(cluster.switches(), cluster.dswitch().trace().size(),
                     cluster.recovery_stats(), cluster.checkpoint_stats(), l);
  std::vector<const runtime::CompletedApp*> all;
  for (const runtime::CompletedApp& c : cluster.completed()) all.push_back(&c);
  add_phase_layers(o, all, l);

  if (capture.on) {
    auto timed_export = [&](const char* name, const std::string& path,
                            auto&& write) {
      Scoped s(tracer, name, run_span.id(), run);
      write(path);
      l[name] = s.close();
      std::ifstream f(path, std::ios::binary | std::ios::ate);
      l["obs.export_mb"] += static_cast<double>(f.tellg()) / 1e6;
    };
    l["obs.export_mb"] = 0;
    // write_outputs writes three files; count them all.
    timed_export("obs.export_metrics_s", capture.prefix + ".jsonl",
                 [&](const std::string&) { telemetry.write_outputs(capture.prefix); });
    for (const char* ext : {".prom", ".report.json"}) {
      std::ifstream f(capture.prefix + ext, std::ios::binary | std::ios::ate);
      l["obs.export_mb"] += static_cast<double>(f.tellg()) / 1e6;
    }
    timed_export("obs.export_trace_s", capture.prefix + ".trace.json",
                 [&](const std::string& p) { hub.write_chrome_trace_file(p); });
    timed_export("obs.export_journal_s", capture.prefix + ".journal.jsonl",
                 [&](const std::string& p) { hub.write_journal_file(p); });
  }
  finish_outcome(o);
  return out;
}

}  // namespace

RunOutput run_traced(const Inputs& in, const Capture& capture, Tracer& tracer) {
  RunOutput out;
  switch (in.workload) {
    case Workload::kPaperGrid:
      out = traced_grid(in, tracer);
      finish_outcome(out.outcome);
      break;
    case Workload::kServeFleet:
      out = traced_serve(in, tracer);
      finish_outcome(out.outcome);
      break;
    case Workload::kClusterChaos:
    case Workload::kLongSteady:
      out = traced_cluster(in, capture, tracer, 0);
      break;
  }
  return out;
}

void check_capture_off(const Inputs& in, double captured_s, Tracer& tracer,
                       RunOutput& out) {
  // The same run with every observability hook off: its cost is the
  // capture overhead, and its outputs must not change.
  const double t0 = now_s();
  RunOutput off = traced_cluster(in, Capture{}, tracer, 1);
  const double off_s = now_s() - t0;
  out.layers["obs.capture_overhead_frac"] = ratio(captured_s - off_s, off_s);
  if (off.outcome.core_digest.hex() != out.outcome.core_digest.hex()) {
    out.outcome.gate_errors.push_back("capture changed the simulated outputs");
  }
}

}  // namespace e2e
