// One workload run of the end-to-end benchmark, in its own process.
//
//   vs_e2e --workload NAME --seed N [--tiny] [--trace] [--out PREFIX]
//   vs_e2e --fig5-check CSV
//
// Prints one JSON object on stdout: set-up and timed-phase host times,
// simulated response statistics, the output digests, correctness-gate
// errors and, with --trace, the per-layer metrics (spans go to
// PREFIX.spans.json). run.py drives it; see README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/benchmarks.h"
#include "driver.h"
#include "metrics/sweep.h"
#include "util/table.h"
#include "workload/generator.h"

namespace {

using namespace e2e;

constexpr int kSetupRepeats = 9;

/// Peak resident set of this process so far, in MB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Every per-layer metric the traced drivers report. Layers a workload
/// does not exercise read 0.
const char* const kLayerNames[] = {
    "sim.events", "sim.ns_per_event", "workload.gen_s", "serve.start_s",
    "metrics.cell_p50_ms", "metrics.cell_max_ms", "metrics.worker_idle_frac",
    "core.pass_ns", "baselines.pass_ns", "core.passes", "baselines.passes",
    "runtime.ns_per_app_first", "runtime.ns_per_app_last",
    "runtime.history_growth", "runtime.pr_blocked_frac",
    "runtime.preemptions_per_app", "runtime.phase.queue_wait_ms",
    "runtime.phase.reconfig_ms", "runtime.phase.exec_ms",
    "runtime.phase.paused_ms", "runtime.phase.migration_ms",
    "runtime.phase.recovery_ms", "cluster.switches", "cluster.migrated_apps",
    "cluster.dswitch_samples", "cluster.downtime_ms_mean", "faults.injected",
    "faults.saved_frac", "faults.mttr_ms", "runtime.ckpt_bytes",
    "runtime.ckpt_passes", "serve.arrivals", "serve.admit_frac",
    "serve.deferred", "serve.rejected", "serve.interactive_attainment",
    "obs.export_metrics_s", "obs.export_trace_s", "obs.export_journal_s",
    "obs.export_mb", "obs.capture_overhead_frac",
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_errors(const std::vector<std::string>& errors) {
  std::string out = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out += (i ? "," : "") + json_str(errors[i]);
  }
  return out + "]";
}

/// The seed-2025 10x20 subset of the paper grid must reproduce the
/// committed fig5_response_time.csv mean_ms column.
int fig5_check(const std::string& csv_path) {
  using namespace vs;
  std::vector<std::string> errors;
  std::ifstream csv(csv_path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  std::getline(csv, line);  // header
  while (std::getline(csv, line)) {
    std::vector<std::string> fields;
    std::stringstream ss(line);
    std::string f;
    while (std::getline(ss, f, ',')) fields.push_back(f);
    if (fields.size() >= 3) rows.push_back(fields);
  }
  if (rows.size() !=
      static_cast<std::size_t>(workload::kCongestionCount * metrics::kSystemCount)) {
    errors.push_back("cannot read 24 rows from " + csv_path);
  } else {
    auto suite = apps::make_suite(fpga::BoardParams{});
    std::vector<metrics::SweepJob> grid;
    for (int ci = 0; ci < workload::kCongestionCount; ++ci) {
      workload::WorkloadConfig config;
      config.congestion = static_cast<workload::Congestion>(ci);
      config.apps_per_sequence = 20;
      auto sequences = workload::generate_sequences(config, 10, 2025);
      for (int k = 0; k < metrics::kSystemCount; ++k) {
        for (const auto& seq : sequences) {
          metrics::RunOptions options;
          options.phase_accounting = true;
          grid.push_back({static_cast<metrics::SystemKind>(k), seq, options});
        }
      }
    }
    auto cells = metrics::SweepRunner(4).run(suite, grid);
    for (std::size_t row = 0; row < rows.size(); ++row) {
      std::vector<metrics::RunResult> per_seq(cells.begin() + row * 10,
                                              cells.begin() + row * 10 + 10);
      auto agg = metrics::reduce_aggregate(
          static_cast<metrics::SystemKind>(row % metrics::kSystemCount),
          per_seq);
      const std::string mean = util::fmt(agg.mean_response_ms, 3);
      if (rows[row][1] != agg.system || rows[row][2] != mean) {
        errors.push_back("fig5 row " + std::to_string(row) + ": " +
                         rows[row][1] + " " + rows[row][2] + " != " +
                         agg.system + " " + mean);
      }
    }
  }
  std::cout << "{\"rows\":" << rows.size()
            << ",\"gate_errors\":" << json_errors(errors) << "}\n";
  return 0;
}

int usage(const std::string& msg) {
  std::cerr << "vs_e2e: " << msg
            << "\nusage: vs_e2e --workload NAME --seed N [--tiny] [--trace] "
               "[--out PREFIX] | --fig5-check CSV\n";
  return 2;
}

}  // namespace

int run_main(int argc, char** argv) {
  std::string workload_name, out_prefix = "vs_e2e_out", fig5_csv;
  std::uint64_t seed = 0;
  bool have_seed = false, tiny = false, trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        workload_name = value();
      } else if (a == "--seed") {
        const std::string v = value();
        std::size_t pos = 0;
        seed = std::stoull(v, &pos);
        if (pos != v.size() || v[0] == '-') throw std::invalid_argument(v);
        have_seed = true;
      } else if (a == "--out") {
        out_prefix = value();
      } else if (a == "--fig5-check") {
        fig5_csv = value();
      } else if (a == "--tiny") {
        tiny = true;
      } else if (a == "--trace") {
        trace = true;
      } else {
        return usage("unknown flag " + a);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + a);
    }
  }
  if (!fig5_csv.empty()) return fig5_check(fig5_csv);
  Workload w{};
  if (!parse_workload(workload_name, &w)) {
    return usage("unknown workload '" + workload_name + "'");
  }
  if (!have_seed) return usage("--seed is required");

  // Set-up is short, so it is repeated and its median reported.
  std::vector<double> setups;
  Inputs in;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t = now_s();
    in = make_inputs(w, seed, tiny);
    setups.push_back(now_s() - t);
  }
  std::sort(setups.begin(), setups.end());
  const double setup_s = setups[setups.size() / 2];

  Capture capture;
  capture.on = w == Workload::kClusterChaos;
  capture.prefix = out_prefix;
  Tracer tracer;
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  RunOutput run = trace ? run_traced(in, capture, tracer)
                        : run_public(in, capture);
  const double wall_s = now_s() - t0;
  const double cpu = cpu_s() - cpu0;
  if (trace && capture.on) check_capture_off(in, wall_s, tracer, run);

  const Outcome& o = run.outcome;
  std::ostringstream js;
  js << "{\"workload\":" << json_str(workload_name)
     << ",\"setup_s\":" << json_num(setup_s)
     << ",\"wall_s\":" << json_num(wall_s) << ",\"cpu_s\":" << json_num(cpu)
     << ",\"peak_rss_mb\":" << json_num(peak_rss_mb())
     << ",\"submitted\":" << o.submitted << ",\"completed\":" << o.completed
     << ",\"events\":" << o.events
     << ",\"response_mean_ms\":" << json_num(o.response.mean)
     << ",\"response_p99_ms\":" << json_num(o.response.p99)
     << ",\"digest\":" << json_str(o.digest.hex())
     << ",\"core_digest\":" << json_str(o.core_digest.hex())
     << ",\"gate_errors\":" << json_errors(o.gate_errors);
  if (trace) {
    Layers layers;
    for (const char* name : kLayerNames) layers[name] = 0;
    for (const auto& [name, v] : run.layers) {
      if (!layers.count(name)) {
        throw std::logic_error("unlisted layer metric " + name);
      }
      layers[name] = v;
    }
    layers["workload.gen_s"] = in.workload_gen_s;
    tracer.write(out_prefix + ".spans.json");
    js << ",\"layers\":{";
    bool first = true;
    for (const auto& [name, v] : layers) {
      js << (first ? "" : ",") << json_str(name) << ":" << json_num(v);
      first = false;
    }
    js << "}";
  }
  js << "}";
  std::cout << js.str() << "\n";
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "vs_e2e: " << e.what() << "\n";
    return 3;
  }
}
