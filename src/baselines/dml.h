// DML-style scheduling (IEEE TC 2022, ref [14] of the paper): dynamic
// partial reconfiguration with scalable task scheduling.
//
// DML introduced the ILP-based optimal slot-count allocation that Nimblock
// and VersaSlot both reuse. Compared to our Nimblock model it runs strict
// FIFO admission with *backfilling* (an app that cannot get its optimal
// allocation is skipped rather than blocking the queue), no preemption and
// no priority reordering — and, like all pre-VersaSlot systems, single-core
// scheduling where PCAP loads suspend the scheduler.
//
// Not part of the paper's Fig 5/6 comparison set; provided as an extension
// system (bench/ext_dml_comparison) because the paper builds directly on
// its allocation scheme.
#pragma once

#include <cassert>
#include <vector>

#include "baselines/policy_common.h"
#include "runtime/policy.h"

namespace vs::baselines {

class DmlPolicy final : public runtime::SchedulerPolicy {
 public:
  [[nodiscard]] const char* name() const override { return "DML"; }

  void on_app_submitted(runtime::BoardRuntime& rt, int app_id) override;

  void on_pass(runtime::BoardRuntime& rt) override;

 private:
  [[nodiscard]] int optimal(int app_id) const {
    auto index = static_cast<std::size_t>(app_id);
    assert(index < optimal_little_.size() &&
           "app was never submitted to this policy");
    return optimal_little_[index];
  }

  /// O^L per runtime app id, set at admission (ids run densely from 0).
  std::vector<int> optimal_little_;
  std::vector<int> idle_;  ///< idle Little slots, refilled every pass
};

}  // namespace vs::baselines
