// The one capture path of the bench and example CLIs.
//
// A Capture resolves --metrics-out PREFIX, --trace-out FILE and
// --journal-out FILE, falling back to VS_METRICS, VS_TRACE and VS_JOURNAL
// (the flag wins; empty means off). It owns the Telemetry bundle and the
// ClusterTraceHub, attaches what was requested to one run's options, and
// after that run writes every requested file. With nothing requested,
// attach() leaves the options as they were.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "metrics/experiment.h"
#include "obs/trace_hub.h"
#include "util/cli.h"

namespace vs::metrics {

class Capture {
 public:
  /// The flags the constructor reads; a capturing CLI names them.
  static inline const util::FlagNames kFlags = {"metrics-out", "trace-out",
                                                "journal-out"};

  explicit Capture(const util::CliArgs& args);

  /// Resolved output paths (PREFIX for metrics); empty means off.
  const std::string& metrics_out() const noexcept { return metrics_out_; }
  const std::string& trace_out() const noexcept { return trace_out_; }
  const std::string& journal_out() const noexcept { return journal_out_; }
  [[nodiscard]] bool requested() const noexcept {
    return !metrics_out_.empty() || observing();
  }

  /// The owned telemetry bundle, exported or not (telemetry_demo's
  /// dashboard reads it either way).
  [[nodiscard]] obs::Telemetry& bundle() noexcept { return telemetry_; }
  /// bundle() when --metrics-out was requested, else null: the telemetry
  /// argument of run_cluster and run_serve.
  [[nodiscard]] obs::Telemetry* telemetry() noexcept {
    return metrics_out_.empty() ? nullptr : &telemetry_;
  }

  /// Attaches the hub, with phase accounting on, if a trace or journal was
  /// requested; RunOptions also get telemetry() if it is not null.
  void attach(RunOptions& options);
  void attach(cluster::ClusterOptions& options);

  /// Appends `tags` to the run report's config echo, writes every
  /// requested file and prints one "... written to ..." line per output.
  /// Throws std::runtime_error naming a file that cannot be written.
  void write(const std::vector<std::pair<std::string, std::string>>& tags);

 private:
  [[nodiscard]] bool observing() const noexcept {
    return !trace_out_.empty() || !journal_out_.empty();
  }

  std::string metrics_out_;
  std::string trace_out_;
  std::string journal_out_;
  obs::Telemetry telemetry_;
  obs::ClusterTraceHub hub_;
};

}  // namespace vs::metrics
