// General-purpose simulation driver: run any system on any workload from
// the command line, with quality metrics, CSV export, workload persistence
// and the shared capture outputs (metrics/capture.h).
// Each flag's default and range sit at its read at the top of run(); a flag
// the chosen mode ignores (--csv with --cluster, --apps with --workload)
// exits 2 before any work.
//
// Examples:
//   simulate --system versaslot-bl --congestion stress --apps 20 --seed 7
//   simulate --system nimblock --workload saved.csv --quality
//   simulate --system versaslot-ol --apps 40 --save-workload w.csv
//   simulate --cluster --apps 80 --boards 2 --congestion stress
//   simulate --system versaslot-bl --apps 10 --trace-out out.json
#include <iostream>

#include "core/versaslot.h"
#include "metrics/capture.h"
#include "metrics/quality.h"
#include "util/cli.h"
#include "util/csv.h"
#include "workload/patterns.h"

int run(const vs::util::CliArgs& args) {
  using namespace vs;
  // Indexed by metrics::SystemKind and workload::Congestion.
  const std::vector<std::string_view> systems = {
      "baseline",     "fcfs",         "rr", "nimblock",
      "versaslot-ol", "versaslot-bl", "dml"};
  const std::vector<std::string_view> congestions = {"loose", "standard",
                                                     "stress", "realtime"};
  const auto kind = static_cast<metrics::SystemKind>(
      args.get_choice("system", systems, "versaslot-bl"));
  const std::size_t congestion =
      args.get_choice("congestion", congestions, "standard");
  const auto n_apps = static_cast<int>(args.get_int("apps", 20, 1, 100'000));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed", 7, 0, INT64_MAX));
  const std::string workload_in = args.get("workload");
  const std::string workload_out = args.get("save-workload");
  const bool on_cluster = args.get_bool("cluster");
  const auto boards = static_cast<int>(args.get_int("boards", 1, 1, 1024));
  const bool with_quality = args.get_bool("quality");
  const std::string csv_path = args.get("csv");
  if (on_cluster) {
    args.reject({"system", "csv", "quality"}, "has no effect with --cluster");
  } else {
    args.reject({"boards"}, "has no effect without --cluster");
  }
  if (!workload_in.empty()) {
    args.reject({"apps", "seed", "congestion"},
                "has no effect with --workload");
  }
  metrics::Capture capture(args);

  fpga::BoardParams params;
  auto suite = apps::make_suite(params);

  workload::Sequence sequence;
  if (!workload_in.empty()) {
    sequence = workload::load_sequence(workload_in, suite.size());
  } else {
    workload::WorkloadConfig config;
    config.congestion = static_cast<workload::Congestion>(congestion);
    config.apps_per_sequence = n_apps;
    util::Rng rng(seed);
    sequence = workload::generate_sequence(config, rng);
  }
  if (!workload_out.empty()) {
    workload::save_sequence(sequence, workload_out);
    std::cout << "workload saved to " << workload_out << "\n";
  }

  if (on_cluster) {
    cluster::ClusterOptions options;
    options.boards_per_config = boards;
    capture.attach(options);
    auto r = metrics::run_cluster(suite, sequence, options,
                                  sim::seconds(36000.0), capture.telemetry());
    capture.write({{"example", "simulate"}});
    std::cout << "cluster run: " << r.completed << "/" << r.submitted
              << " apps, mean " << util::fmt(r.response.mean, 1)
              << " ms, P95 " << util::fmt(r.response.p95, 1) << " ms, "
              << r.switches.size() << " switches\n";
    for (const auto& e : r.switches) {
      std::cout << "  switch @ " << util::fmt(sim::to_seconds(e.time), 2)
                << "s -> "
                << (e.to == core::SwitchLoop::Config::kBigLittle
                        ? "Big.Little"
                        : "Only.Little")
                << " (" << e.apps_migrated << " apps, "
                << util::fmt_duration_ns(e.overhead) << ")\n";
    }
    return 0;
  }

  metrics::RunOptions options;
  capture.attach(options);
  metrics::RunResult r =
      metrics::run_single_board(kind, suite, sequence, options);
  capture.write({{"example", "simulate"}});

  std::cout << r.system << ": " << r.completed << "/" << r.submitted
            << " apps, mean " << util::fmt(r.response.mean, 1) << " ms, P95 "
            << util::fmt(r.response.p95, 1) << " ms, P99 "
            << util::fmt(r.response.p99, 1) << " ms\nPRs "
            << r.counters.pr_requests << " (" << r.counters.pr_blocked
            << " queued), preemptions " << r.counters.preemptions
            << ", items " << r.counters.items_executed << "\n";

  if (with_quality) {
    metrics::QualityReport q = metrics::quality(r, suite, sequence, params);
    std::cout << "quality: mean slowdown " << util::fmt(q.mean_slowdown, 2)
              << ", P95 slowdown " << util::fmt(q.p95_slowdown, 2)
              << ", Jain fairness " << util::fmt(q.jain_fairness, 3)
              << ", throughput " << util::fmt(q.throughput_apps_per_s, 2)
              << " apps/s\n";
  }

  if (!csv_path.empty()) {
    util::CsvWriter csv(csv_path);
    csv.header({"system", "congestion", "apps", "mean_ms", "p95_ms",
                "p99_ms", "prs", "pr_blocked"});
    csv.row({r.system, std::string(congestions[congestion]),
             std::to_string(r.submitted), util::fmt(r.response.mean, 3),
             util::fmt(r.response.p95, 3), util::fmt(r.response.p99, 3),
             std::to_string(r.counters.pr_requests),
             std::to_string(r.counters.pr_blocked)});
    csv.close();
    std::cout << "summary written to " << csv_path << "\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(argc, argv,
                           {{"system", "congestion", "apps", "seed",
                             "workload", "save-workload", "cluster", "boards",
                             "quality", "csv"},
                            vs::metrics::Capture::kFlags},
                           run);
}
