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

AggregateResult reduce_aggregate(SystemKind kind,
                                 const std::vector<RunResult>& per_sequence) {
  AggregateResult agg;
  agg.system = system_name(kind);
  for (const RunResult& r : per_sequence) {
    agg.all_responses_ms.insert(agg.all_responses_ms.end(),
                                r.response_ms.begin(), r.response_ms.end());
  }
  util::Summary s = util::summarize(agg.all_responses_ms);
  agg.mean_response_ms = s.mean;
  agg.p95_ms = s.p95;
  agg.p99_ms = s.p99;
  return agg;
}

}  // namespace vs::metrics
