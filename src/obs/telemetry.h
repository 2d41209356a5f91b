// Telemetry: the bundle a run carries when metrics are enabled.
//
// One object owning the MetricsRegistry, the periodic Sampler, and the
// RunInfo config echo, with a one-call exporter that writes the three
// machine formats next to each other:
//   <prefix>.prom         Prometheus text exposition (final values)
//   <prefix>.jsonl        gauge/counter time series, one line per snapshot:
//                         the first line carries every column, each later
//                         line `t_ms` plus the columns that changed since
//                         the line before (carry values forward to read)
//   <prefix>.report.json  RunReport (config echo + finals + percentiles)
//
// Experiments take a `Telemetry*` (null = telemetry off, the default): the
// harness binds every component to the registry and starts the sampler
// before sim.run(). Telemetry is for single runs — parallel sweep jobs
// leave it null, since one registry must not be shared across replica
// threads.
#pragma once

#include <string>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "sim/time.h"

namespace vs::sim {
class Simulator;
}  // namespace vs::sim

namespace vs::obs {

class Telemetry {
 public:
  /// The sampler snapshots every 50 ms of simulated time.
  Telemetry();

  [[nodiscard]] MetricsRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const MetricsRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] Sampler& sampler() noexcept { return sampler_; }
  [[nodiscard]] const Sampler& sampler() const noexcept { return sampler_; }
  [[nodiscard]] RunInfo& info() noexcept { return info_; }
  [[nodiscard]] const RunInfo& info() const noexcept { return info_; }

  /// Arms the sampler on `sim`. Call after binding instruments, before run.
  void start_sampling(sim::Simulator& sim) { sampler_.start(sim); }

  /// Writes <prefix>.prom, <prefix>.jsonl and <prefix>.report.json.
  /// Throws std::runtime_error naming the path if a file cannot be opened
  /// or written in full.
  void write_outputs(const std::string& prefix) const;

  [[nodiscard]] std::string dashboard(const std::string& title) const {
    return format_dashboard(registry_, title);
  }

 private:
  MetricsRegistry registry_;
  Sampler sampler_;
  RunInfo info_;
};

}  // namespace vs::obs
