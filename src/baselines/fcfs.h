// First-come-first-served spatio-temporal sharing: uniform Little slots,
// per-app ILP-optimal slot counts, free slots always offered to the
// earliest-arrived app first, no preemption, single-core scheduling (PR
// loads suspend the scheduler core).
#pragma once

#include "baselines/policy_common.h"
#include "runtime/policy.h"

namespace vs::baselines {

class FcfsPolicy final : public runtime::SchedulerPolicy {
 public:
  [[nodiscard]] const char* name() const override { return "FCFS"; }

  void on_app_submitted(runtime::BoardRuntime&, int) override {}

  void on_pass(runtime::BoardRuntime& rt) override;

 private:
  std::vector<int> idle_;  ///< idle Little slots, refilled every pass
};

}  // namespace vs::baselines
