// Round-robin spatio-temporal sharing (Coyote-style, ref [22]): free slots
// are offered to live applications in cyclic order, one placement per app
// per round, so no application monopolises the fabric even without
// preemption. Single-core scheduling.
#pragma once

#include "baselines/policy_common.h"
#include "runtime/policy.h"

namespace vs::baselines {

class RoundRobinPolicy final : public runtime::SchedulerPolicy {
 public:
  [[nodiscard]] const char* name() const override { return "RR"; }

  void on_app_submitted(runtime::BoardRuntime&, int) override {}

  void on_pass(runtime::BoardRuntime& rt) override;

 private:
  std::vector<int> idle_;  ///< idle Little slots, refilled every pass
  std::size_t cursor_ = 0;
};

}  // namespace vs::baselines
