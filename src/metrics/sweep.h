// Deterministic parallel sweep execution.
//
// Every grid-shaped experiment in bench/ evaluates a (system × congestion ×
// sequence) grid of fully independent replicas: each run_single_board() call
// owns a fresh sim::Simulator, so replicas share no mutable state and can
// shard across hardware threads. SweepRunner does exactly that — one job per
// (SystemKind, Sequence, RunOptions) tuple — and collects RunResults keyed
// by job index, then reduces them in job order. Because each replica is a
// pure function of its inputs (identical seed => identical result) and the
// reduction order is fixed, aggregate output is bit-identical to the serial
// path for any worker count, including 1.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "metrics/experiment.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace vs::metrics {

/// One sweep cell: a system evaluated on one sequence under one option set.
struct SweepJob {
  SystemKind kind = SystemKind::kBaseline;
  workload::Sequence sequence;
  RunOptions options;
};

class SweepRunner {
 public:
  /// `jobs` is the worker count; 0 resolves via util::resolve_jobs()
  /// (VS_JOBS, then hardware concurrency).
  explicit SweepRunner(int jobs = 0)
      : jobs_(jobs > 0 ? jobs : util::resolve_jobs()) {}
  /// Reads --jobs N in [1, 1024] (a sweeping CLI names kFlags); without
  /// it, as SweepRunner(0).
  static inline const util::FlagNames kFlags = {"jobs"};
  explicit SweepRunner(const util::CliArgs& args)
      : SweepRunner(static_cast<int>(args.get_int("jobs", 0, 1, 1024))) {}

  [[nodiscard]] int jobs() const noexcept { return jobs_; }

  /// Runs every job on its own simulator replica and returns results in
  /// job order (results[i] belongs to sweep[i], regardless of which worker
  /// ran it or when it finished). If any replica throws, the remaining
  /// jobs still drain and the lowest-indexed exception is rethrown — so
  /// even the error path is deterministic.
  [[nodiscard]] std::vector<RunResult> run(
      const std::vector<apps::AppSpec>& suite,
      const std::vector<SweepJob>& sweep) const;

  /// Deterministic generic map for grids that do not fit SweepJob (cluster
  /// runs, custom reducers): evaluates fn(0..n-1) across the workers and
  /// returns results keyed by index. Same drain-then-rethrow error path
  /// as run(). Each job logs into its own buffer (util::LogCapture), and
  /// the buffers reach stderr in job order once every job has finished,
  /// failed ones included, so the log is the same at any worker count.
  template <typename R>
  [[nodiscard]] std::vector<R> map(
      std::size_t n, const std::function<R(std::size_t)>& fn) const;

 private:
  int jobs_;
};

// ---------------------------------------------------------------- inline

template <typename R>
std::vector<R> SweepRunner::map(
    std::size_t n, const std::function<R(std::size_t)>& fn) const {
  std::vector<R> results(n);
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::string> logs(n);
  util::parallel_for(jobs_, n, [&](std::size_t i) {
    util::LogCapture capture(logs[i]);
    try {
      results[i] = fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::string& log : logs) util::Log::emit(log);
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
  return results;
}

}  // namespace vs::metrics
