#include "metrics/capture.h"

#include <cstdlib>
#include <iostream>

namespace vs::metrics {

namespace {

std::string resolve(const util::CliArgs& args, const char* flag,
                    const char* env_var) {
  if (args.has(flag)) return args.get(flag);
  const char* env = std::getenv(env_var);
  return env != nullptr ? env : "";
}

}  // namespace

Capture::Capture(const util::CliArgs& args)
    : metrics_out_(resolve(args, "metrics-out", "VS_METRICS")),
      trace_out_(resolve(args, "trace-out", "VS_TRACE")),
      journal_out_(resolve(args, "journal-out", "VS_JOURNAL")) {
  hub_.enable_trace(!trace_out_.empty());
  hub_.enable_journal(!journal_out_.empty());
}

void Capture::attach(RunOptions& options) {
  if (!metrics_out_.empty()) options.telemetry = &telemetry_;
  if (observing()) {
    options.hub = &hub_;
    options.phase_accounting = true;
  }
}

void Capture::attach(cluster::ClusterOptions& options) {
  if (observing()) {
    options.hub = &hub_;
    options.phase_accounting = true;
  }
}

void Capture::write(
    const std::vector<std::pair<std::string, std::string>>& tags) {
  if (!metrics_out_.empty()) {
    auto& config = telemetry_.info().config;
    config.insert(config.end(), tags.begin(), tags.end());
    telemetry_.write_outputs(metrics_out_);
    std::cout << "Telemetry written to " << metrics_out_
              << ".{prom,jsonl,report.json}\n";
  }
  if (!trace_out_.empty()) {
    hub_.write_chrome_trace_file(trace_out_);
    std::cout << "Chrome trace written to " << trace_out_ << "\n";
  }
  if (!journal_out_.empty()) {
    hub_.write_journal_file(journal_out_);
    std::cout << "Run journal written to " << journal_out_ << "\n";
  }
}

}  // namespace vs::metrics
