// General-purpose simulation driver: run any system on any workload from
// the command line, with quality metrics, CSV export, workload persistence
// and Chrome-trace output.
//
// Examples:
//   simulate --system versaslot-bl --congestion stress --apps 20 --seed 7
//   simulate --system nimblock --workload saved.csv --quality
//   simulate --system versaslot-ol --apps 40 --save-workload w.csv
//   simulate --cluster --apps 80 --boards 2 --congestion stress
//   simulate --system versaslot-bl --apps 10 --trace out.json
#include <iostream>

#include "core/versaslot.h"
#include "metrics/quality.h"
#include "util/cli.h"
#include "util/csv.h"
#include "workload/patterns.h"

namespace {

using namespace vs;

constexpr const char* kUsage = R"(usage: simulate [options]
  --system NAME       baseline|fcfs|rr|nimblock|dml|versaslot-ol|versaslot-bl
                      (default versaslot-bl)
  --congestion NAME   loose|standard|stress|realtime (default standard)
  --apps N            applications per sequence (default 20)
  --seed S            workload seed (default 7)
  --workload FILE     load the workload from a CSV instead of generating
  --save-workload F   save the generated workload to a CSV
  --cluster           run on the two-pool cluster with live migration
  --boards N          boards per fabric configuration (cluster mode)
  --quality           print slowdown/fairness/throughput metrics
  --csv FILE          append one summary row to a CSV file
  --trace FILE        write a Chrome trace of the run (one process per board)
  --help              this text
)";

bool parse_system(const std::string& name, metrics::SystemKind& kind) {
  const std::pair<const char*, metrics::SystemKind> table[] = {
      {"baseline", metrics::SystemKind::kBaseline},
      {"fcfs", metrics::SystemKind::kFcfs},
      {"rr", metrics::SystemKind::kRoundRobin},
      {"nimblock", metrics::SystemKind::kNimblock},
      {"dml", metrics::SystemKind::kDml},
      {"versaslot-ol", metrics::SystemKind::kVersaOnlyLittle},
      {"versaslot-bl", metrics::SystemKind::kVersaBigLittle},
  };
  for (const auto& [label, k] : table) {
    if (name == label) {
      kind = k;
      return true;
    }
  }
  return false;
}

bool parse_congestion(const std::string& name, workload::Congestion& c) {
  const std::pair<const char*, workload::Congestion> table[] = {
      {"loose", workload::Congestion::kLoose},
      {"standard", workload::Congestion::kStandard},
      {"stress", workload::Congestion::kStress},
      {"realtime", workload::Congestion::kRealtime},
  };
  for (const auto& [label, k] : table) {
    if (name == label) {
      c = k;
      return true;
    }
  }
  return false;
}

}  // namespace

int run(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  if (args.has("help")) {
    std::cout << kUsage;
    return 0;
  }

  metrics::SystemKind kind = metrics::SystemKind::kVersaBigLittle;
  if (!parse_system(args.get("system", "versaslot-bl"), kind)) {
    std::cerr << "unknown --system\n" << kUsage;
    return 1;
  }
  workload::Congestion congestion = workload::Congestion::kStandard;
  if (!parse_congestion(args.get("congestion", "standard"), congestion)) {
    std::cerr << "unknown --congestion\n" << kUsage;
    return 1;
  }

  fpga::BoardParams params;
  auto suite = apps::make_suite(params);

  workload::Sequence sequence;
  if (args.has("workload")) {
    sequence = workload::load_sequence(args.get("workload"));
  } else {
    workload::WorkloadConfig config;
    config.congestion = congestion;
    config.apps_per_sequence = static_cast<int>(args.get_int("apps", 20));
    util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 7)));
    sequence = workload::generate_sequence(config, rng);
  }
  if (args.has("save-workload")) {
    workload::save_sequence(sequence, args.get("save-workload"));
    std::cout << "workload saved to " << args.get("save-workload") << "\n";
  }

  // --trace FILE: both modes record spans through one trace hub.
  const std::string trace_file = args.get("trace");
  obs::ClusterTraceHub hub;
  hub.enable_trace();
  obs::ClusterTraceHub* trace_hub = trace_file.empty() ? nullptr : &hub;
  auto write_trace = [&] {
    if (trace_hub == nullptr) return;
    hub.write_chrome_trace_file(trace_file);
    std::cout << "trace written to " << trace_file << "\n";
  };

  if (args.get_bool("cluster")) {
    cluster::ClusterOptions options;
    options.boards_per_config =
        static_cast<int>(args.get_int("boards", 1));
    options.hub = trace_hub;
    auto r = metrics::run_cluster(suite, sequence, options);
    write_trace();
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
  options.hub = trace_hub;
  metrics::RunResult r =
      metrics::run_single_board(kind, suite, sequence, options);
  write_trace();

  std::cout << r.system << ": " << r.completed << "/" << r.submitted
            << " apps, mean " << util::fmt(r.response.mean, 1) << " ms, P95 "
            << util::fmt(r.response.p95, 1) << " ms, P99 "
            << util::fmt(r.response.p99, 1) << " ms\nPRs "
            << r.counters.pr_requests << " (" << r.counters.pr_blocked
            << " queued), preemptions " << r.counters.preemptions
            << ", items " << r.counters.items_executed << "\n";

  if (args.get_bool("quality")) {
    metrics::QualityReport q = metrics::quality(r, suite, sequence, params);
    std::cout << "quality: mean slowdown " << util::fmt(q.mean_slowdown, 2)
              << ", P95 slowdown " << util::fmt(q.p95_slowdown, 2)
              << ", Jain fairness " << util::fmt(q.jain_fairness, 3)
              << ", throughput " << util::fmt(q.throughput_apps_per_s, 2)
              << " apps/s\n";
  }

  if (args.has("csv")) {
    util::CsvWriter csv(args.get("csv"));
    csv.header({"system", "congestion", "apps", "mean_ms", "p95_ms",
                "p99_ms", "prs", "pr_blocked"});
    csv.row({r.system, args.get("congestion", "standard"),
             std::to_string(r.submitted), util::fmt(r.response.mean, 3),
             util::fmt(r.response.p95, 3), util::fmt(r.response.p99, 3),
             std::to_string(r.counters.pr_requests),
             std::to_string(r.counters.pr_blocked)});
    std::cout << "summary appended to " << args.get("csv") << "\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli([&] { return run(argc, argv); });
}
