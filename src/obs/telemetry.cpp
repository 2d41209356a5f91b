#include "obs/telemetry.h"

#include <cstdlib>
#include <ostream>

#include "obs/block_writer.h"
#include "util/cli.h"

namespace vs::obs {

Telemetry::Telemetry(sim::SimDuration sample_interval)
    : sampler_(registry_, sample_interval) {}

void Telemetry::write_outputs(const std::string& prefix) const {
  const char* what = "metrics output file";
  write_file(prefix + ".prom", what,
             [this](std::ostream& out) { write_prometheus(registry_, out); });
  write_file(prefix + ".jsonl", what, [this](std::ostream& out) {
    write_timeseries_jsonl(sampler_, registry_, out);
  });
  write_file(prefix + ".report.json", what, [this](std::ostream& out) {
    write_run_report(registry_, info_, &sampler_, out);
  });
}

namespace {

std::string resolve_out(const util::CliArgs* args, const char* flag,
                        const char* env_var) {
  if (args != nullptr && args->has(flag)) return args->get(flag);
  if (const char* env = std::getenv(env_var);
      env != nullptr && *env != '\0') {
    return env;
  }
  return {};
}

}  // namespace

std::string resolve_metrics_out(const util::CliArgs* args) {
  return resolve_out(args, "metrics-out", "VS_METRICS");
}

std::string resolve_trace_out(const util::CliArgs* args) {
  return resolve_out(args, "trace-out", "VS_TRACE");
}

std::string resolve_journal_out(const util::CliArgs* args) {
  return resolve_out(args, "journal-out", "VS_JOURNAL");
}

}  // namespace vs::obs
