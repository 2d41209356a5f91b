// The VersaSlot scheduling policy — the paper's core contribution.
//
// Implements Algorithm 1 (slot allocation: primary allocation with
// Big-slot-first binding, redistribution of leftover Little slots, and
// rebinding of not-yet-started Little apps when Big slots free up) and
// Algorithm 2 (scheduling: online 3-in-1 bundling for Big-bound apps,
// batch-execution launching decoupled from PR, asynchronous PR dispatch to
// the dedicated PR-server core, per-app slot caps, and preemption only in
// Little slots).
//
// Runs in two modes mirroring the paper's two fabric configurations:
//  - kBigLittle: heterogeneous slots, bundling, rebinding, redistribution.
//  - kOnlyLittle: uniform slots with dual-core scheduling, same-app task
//    pre-loading and Nimblock-style preemption (the paper's Only.Little
//    VersaSlot variant).
//
// Every design knob is an option so the ablation benches can switch the
// paper's individual mechanisms off.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "apps/bundling.h"
#include "obs/metrics.h"
#include "runtime/policy.h"
#include "sim/time.h"

namespace vs::runtime {
struct AppRun;
}  // namespace vs::runtime

namespace vs::core {

struct VersaSlotOptions {
  enum class Mode { kBigLittle, kOnlyLittle };
  Mode mode = Mode::kBigLittle;

  bool dual_core = true;            ///< PR server on the second core
  bool enable_redistribution = true;
  bool enable_rebinding = true;
  int bundle_size = 3;              ///< tasks per Big-slot bundle
  /// Ablation: override the runtime serial/parallel bundle selection.
  std::optional<apps::BundleMode> forced_bundle_mode;

  /// Little-slot preemption (Big-bound apps are never preempted).
  sim::SimDuration starvation_threshold = sim::ms(200.0);
  sim::SimDuration preempt_cooldown = sim::ms(100.0);
};

class VersaSlotPolicy : public runtime::SchedulerPolicy {
 public:
  explicit VersaSlotPolicy(VersaSlotOptions options = {})
      : options_(options) {}

  [[nodiscard]] const char* name() const override {
    return options_.mode == VersaSlotOptions::Mode::kBigLittle
               ? "VersaSlot-BL"
               : "VersaSlot-OL";
  }

  [[nodiscard]] bool dual_core() const override { return options_.dual_core; }

  void on_app_submitted(runtime::BoardRuntime& rt, int app_id) override;
  void on_pass(runtime::BoardRuntime& rt) override;
  void bind_metrics(obs::MetricsRegistry& registry,
                    const std::string& board) override;

  /// Binding state, exposed for tests and the ablation benches.
  enum class Binding { kWaiting, kBig, kLittle };
  [[nodiscard]] Binding binding(int app_id) const {
    auto index = static_cast<std::size_t>(app_id);
    return app_id >= 0 && index < state_.size() ? state_[index].binding
                                                : Binding::kWaiting;
  }
  [[nodiscard]] const VersaSlotOptions& options() const noexcept {
    return options_;
  }

 private:
  struct AppState {
    Binding binding = Binding::kWaiting;
    int alloc_big = 0;
    int alloc_little = 0;
    int optimal_big = 0;
    int optimal_little = 0;
    sim::SimTime last_preempted = -1;
  };

  void allocate(runtime::BoardRuntime& rt);   ///< Algorithm 1
  void schedule(runtime::BoardRuntime& rt);   ///< Algorithm 2
  void preempt_little(runtime::BoardRuntime& rt);

  /// canBundle() of an unstarted app: apps::can_bundle for its spec,
  /// computed once per spec index. Apps that already carry execution
  /// progress (live-migration arrivals) are pinned to their per-task
  /// decomposition and never bundle.
  [[nodiscard]] bool bundles(const runtime::BoardRuntime& rt,
                             const runtime::AppRun& a);
  /// Whether Algorithm 1 may bind `a` to Big slots (lines 8-10).
  [[nodiscard]] bool big_eligible(const runtime::BoardRuntime& rt,
                                  const runtime::AppRun& a, int little_total);
  [[nodiscard]] AppState& state(int app_id) {
    auto index = static_cast<std::size_t>(app_id);
    assert(index < state_.size() && "app was never submitted to this policy");
    return state_[index];
  }

  VersaSlotOptions options_;
  /// Per-app decision state, indexed by runtime app id. A policy serves one
  /// runtime, whose ids run densely from 0, and on_app_submitted sizes the
  /// vector on every admission — so every live id has an entry.
  std::vector<AppState> state_;
  /// apps::can_bundle verdicts by spec index: kUnchecked, 0 or 1. Sized at
  /// admission, filled on first use.
  static constexpr std::int8_t kUnchecked = -1;
  std::vector<std::int8_t> bundleable_;
  /// Algorithm 1 and the placement sweep read only the live set, each live
  /// app's pending, placed and finished units and its started flag, and
  /// the idle masks, which BoardRuntime::allocation_changes() counts
  /// changes to, and this policy's bindings and allocations. A PR
  /// completion changes none of them and moves no count. So a
  /// step is skipped while the count stands where it stood after a run that
  /// changed nothing: allocate()'s memo is the count after its last run
  /// that wrote no binding or allocation (a line-2 exit included), and the
  /// sweep's the count after the last sweep. A run of allocate() that does
  /// write one clears the sweep's; preempt_little() writes them only beside
  /// a preemption, which moves the count.
  static constexpr std::uint64_t kStale = ~std::uint64_t{0};
  std::uint64_t allocate_memo_ = kStale;
  std::uint64_t sweep_memo_ = kStale;
  /// Idle-slot buffers refilled by every sweep (BoardRuntime::idle_slots),
  /// and the Big units a binding builds, so a pass allocates nothing once
  /// they have grown to the slot and bundle counts.
  std::vector<int> idle_big_;
  std::vector<int> idle_little_;
  std::vector<apps::UnitSpec> big_units_;

  // Telemetry: Algorithm 1/2 decision outcomes (no-ops until bound).
  obs::CounterHandle m_big_bindings_;     ///< vs_policy_big_bindings_total
  obs::CounterHandle m_little_bindings_;  ///< vs_policy_little_bindings_total
  obs::CounterHandle m_bundles_;          ///< vs_policy_bundle_hits_total
  obs::CounterHandle m_rebindings_;       ///< vs_policy_rebindings_total
  obs::CounterHandle m_redistributed_;    ///< vs_policy_redistributed_slots_total
  obs::CounterHandle m_preemptions_;      ///< vs_policy_preemptions_total
};

}  // namespace vs::core
