// Exporters for MetricsRegistry / Sampler contents.
//
// Three machine formats plus one human one:
//  - Prometheus text exposition (`# TYPE` headers, `name{labels} value`
//    lines, histogram `_bucket`/`_sum`/`_count` series with a +Inf bucket),
//  - JSONL time series, one flat JSON object per sampler snapshot keyed by
//    instrument full name, with `t_ms` for the simulated timestamp. The
//    first line carries every column; each later line carries `t_ms` plus
//    only the columns whose value changed (by bit pattern) since the line
//    before, and a column first appears on the line of its first sample.
//    A reader rebuilds snapshot k by carrying values forward through lines
//    0..k (docs/observability.md, "Reading the metrics series"),
//  - a RunReport JSON document (config echo, final instrument values,
//    histogram percentile summaries),
//  - a dashboard-style ASCII summary (examples/telemetry_demo.cpp).
//
// The series and the trace hub's writers format into one BlockWriter
// (obs/block_writer.h), so their cost follows what the run recorded, and
// spread that formatting over threads in ordered chunks (write_ordered).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/sampler.h"

namespace vs::obs {

/// Free-form run description echoed into the RunReport: an experiment name
/// plus ordered key/value config pairs (seed, system, workload, ...).
struct RunInfo {
  std::string experiment;
  std::vector<std::pair<std::string, std::string>> config;
};

/// Series rows per chunk of the parallel series export: about 48 KiB of
/// text at some 464 bytes a row, so a chunk seldom outgrows its writer's
/// first 64 KiB block.
inline constexpr std::size_t kSeriesChunkRows = 64 * 1024 / 640;

void write_prometheus(const MetricsRegistry& registry, std::ostream& out);
void write_timeseries_jsonl(const Sampler& sampler,
                            const MetricsRegistry& registry,
                            std::ostream& out);
void write_run_report(const MetricsRegistry& registry, const RunInfo& info,
                      const Sampler* sampler, std::ostream& out);

/// Terminal-width ASCII summary: counters/gauges as aligned rows, histogram
/// rows with count/mean/p50/p95/p99/max and a log-bucket occupancy bar.
[[nodiscard]] std::string format_dashboard(const MetricsRegistry& registry,
                                           const std::string& title);

/// JSON string escaping (quotes, backslashes, control characters).
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace vs::obs
