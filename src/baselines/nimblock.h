// Nimblock-style scheduling (ISCA'23, ref [15]) — the paper's
// state-of-the-art comparison point.
//
// Uniform Little slots, ILP-optimal per-app slot counts, priority scheduling
// by shortest estimated remaining work, and preemption at batch-item
// boundaries so long-running applications cannot monopolise the fabric.
// Crucially, Nimblock runs everything on a single CPU core: every PCAP load
// suspends the scheduler, so batch launches and further PRs queue behind
// in-flight reconfigurations — the contention/blocking behaviour Fig 2 of
// the VersaSlot paper illustrates.
#pragma once

#include <unordered_map>

#include "baselines/policy_common.h"
#include "runtime/policy.h"
#include "sim/time.h"

namespace vs::baselines {

struct NimblockOptions {
  /// A starving app (no slots held) triggers preemption after waiting this
  /// long, mirroring Nimblock's slice-based yielding.
  sim::SimDuration starvation_threshold = sim::ms(2000.0);
  /// Cooldown between preemptions of the same victim app.
  sim::SimDuration preempt_cooldown = sim::ms(1000.0);
};

class NimblockPolicy : public runtime::SchedulerPolicy {
 public:
  explicit NimblockPolicy(NimblockOptions options = {})
      : options_(options) {}

  [[nodiscard]] const char* name() const override { return "Nimblock"; }

  void on_app_submitted(runtime::BoardRuntime& rt, int app_id) override;
  void on_pass(runtime::BoardRuntime& rt) override;

 protected:
  /// Priority key: estimated remaining work, smaller = runs first.
  [[nodiscard]] sim::SimDuration remaining_estimate(
      runtime::BoardRuntime& rt, const runtime::AppRun& app);

  void maybe_preempt(runtime::BoardRuntime& rt,
                     const std::vector<int>& priority_order);

  NimblockOptions options_;
  LittleAllocCache alloc_;
  std::vector<int> idle_;  ///< idle Little slots, refilled every pass
  std::unordered_map<int, sim::SimTime> wait_since_;
  std::unordered_map<int, sim::SimTime> last_preempted_;
};

}  // namespace vs::baselines
