#include "metrics/sweep.h"

namespace vs::metrics {

std::vector<RunResult> SweepRunner::run(
    const std::vector<apps::AppSpec>& suite,
    const std::vector<SweepJob>& sweep) const {
  return map<RunResult>(sweep.size(), [&](std::size_t i) {
    const SweepJob& job = sweep[i];
    return run_single_board(job.kind, suite, job.sequence, job.options);
  });
}

}  // namespace vs::metrics
