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

#include <cassert>
#include <utility>
#include <vector>

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

class NimblockPolicy final : public runtime::SchedulerPolicy {
 public:
  explicit NimblockPolicy(NimblockOptions options = {})
      : options_(options) {}

  [[nodiscard]] const char* name() const override { return "Nimblock"; }

  void on_app_submitted(runtime::BoardRuntime& rt, int app_id) override;
  void on_pass(runtime::BoardRuntime& rt) override;

 private:
  /// What a pass reads of an app beside the runtime's starvation clock
  /// (AppRun::wait_since). Everything but last_preempted is fixed at
  /// admission.
  struct AppState {
    int optimal_little = 0;              ///< O^L
    sim::SimDuration full_estimate = 0;  ///< makespan at O^L, no progress
    sim::SimTime last_preempted = -1;  ///< last time it was a victim; -1 never
  };

  void maybe_preempt(runtime::BoardRuntime& rt);

  [[nodiscard]] AppState& state(int app_id) {
    auto index = static_cast<std::size_t>(app_id);
    assert(index < state_.size() && "app was never submitted to this policy");
    return state_[index];
  }

  NimblockOptions options_;
  /// Per-app state, indexed by runtime app id. A policy serves one runtime,
  /// whose ids run densely from 0, and on_app_submitted sizes the vector on
  /// every admission — so every live id has an entry.
  std::vector<AppState> state_;
  /// Pass buffers, refilled every pass so a pass allocates nothing once
  /// they have grown to the live-app and slot counts: (remaining estimate,
  /// id) keys, the priority order they sort into, its slot caps, and the
  /// idle Little slots.
  std::vector<std::pair<sim::SimDuration, int>> keyed_;
  std::vector<int> order_;
  std::vector<int> caps_;
  std::vector<int> idle_;
};

}  // namespace vs::baselines
