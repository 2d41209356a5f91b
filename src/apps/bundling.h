// 3-in-1 task bundling and schedulable units.
//
// A *schedulable unit* is what a policy places into a slot: either one task
// (Little slot) or a bundle of up to three consecutive tasks (Big slot).
// Bundled tasks execute inside the Big slot either as an internal parallel
// pipeline (per-item period = max task latency, plus a fill of
// (group-1)·Tmax) or serially (per-item period = sum of task latencies).
//
// Mode choice (paper §III-B / Fig 3): parallel makespan for a batch of N is
// Tmax·(N + g − 1) (= Tmax·(N+2) for g = 3); serial makespan is ΣTi·N. The
// system picks whichever is smaller for the actual batch size at runtime —
// serial wins only when the pipeline is so unbalanced that paying the fill
// is worse than serialising, which for g = 3 happens at small N (see
// DESIGN.md §3.3 for how we read the paper's inequality).
#pragma once

#include <optional>
#include <vector>

#include "apps/synthesis.h"
#include "apps/task.h"
#include "fpga/params.h"
#include "fpga/slot.h"

namespace vs::apps {

enum class BundleMode { kSingle, kSerial, kParallel };

[[nodiscard]] constexpr const char* to_string(BundleMode mode) noexcept {
  switch (mode) {
    case BundleMode::kSingle: return "single";
    case BundleMode::kSerial: return "serial";
    case BundleMode::kParallel: return "parallel";
  }
  return "?";
}

/// A unit of scheduling: a task or a bundle, with the derived execution and
/// resource model used by the runtime. What every batch item reads leads.
struct UnitSpec {
  sim::SimDuration item_latency = 0;  ///< steady-state period per item
  sim::SimDuration fill_latency = 0;  ///< extra latency before first item
  std::int64_t item_bytes_in = 0;     ///< per-item DMA into the unit
  int first_task = 0;  ///< inclusive range into AppSpec::tasks
  int last_task = 0;
  fpga::SlotKind slot_kind = fpga::SlotKind::kLittle;
  BundleMode mode = BundleMode::kSingle;
  fpga::ResourceVector synth_usage;
  fpga::ResourceVector impl_usage;
  std::int64_t bitstream_bytes = 0;
  std::int64_t item_bytes_out = 0;

  [[nodiscard]] int task_count() const noexcept {
    return last_task - first_task + 1;
  }
};

/// Chooses serial vs parallel for a bundle of task latencies at batch size
/// `batch` by comparing makespans (ties go to parallel, which also has the
/// lower first-item latency).
[[nodiscard]] BundleMode choose_mode(
    const std::vector<sim::SimDuration>& latencies, int batch);

/// One unit per task, targeting Little slots.
[[nodiscard]] std::vector<UnitSpec> make_little_units(const AppSpec& app);

/// Fills `units` with bundled units targeting Big slots: consecutive
/// groups of up to `bundle_size` tasks, each with its runtime-chosen mode
/// for `batch` — or with `forced_mode` for every multi-task bundle
/// (ablation of the runtime selection; single-task groups stay kSingle).
/// `units` is cleared first and keeps its capacity, so a caller that keeps
/// it allocates nothing once it holds the bundle count.
void make_big_units(std::vector<UnitSpec>& units, const AppSpec& app,
                    int batch, const fpga::BoardParams& params,
                    const SynthesisModel& model = {}, int bundle_size = 3,
                    std::optional<BundleMode> forced_mode = std::nullopt);

/// True when every bundle of the app fits a Big slot at implementation —
/// the canBundle() predicate of Algorithm 1.
[[nodiscard]] bool can_bundle(const AppSpec& app,
                              const fpga::BoardParams& params,
                              const SynthesisModel& model = {},
                              int bundle_size = 3);

/// Pipeline-optimal Little-slot count for an app at batch size `batch`
/// (the ILP of [14], [15] approximated by direct makespan search): the
/// smallest k in [1, max_slots] minimising the estimated pipeline makespan
/// including PR cost. Usually below the task count.
[[nodiscard]] int optimal_little_slots(const AppSpec& app, int batch,
                                       const fpga::BoardParams& params,
                                       int max_slots);

/// Optimal Big-slot count: one slot per bundle.
[[nodiscard]] int optimal_big_slots(const AppSpec& app, int bundle_size = 3);

/// Estimated makespan of running the app on k Little slots (used by the
/// optimal-count search and by Nimblock-style priority ordering).
[[nodiscard]] sim::SimDuration estimate_little_makespan(
    const AppSpec& app, int batch, int k, const fpga::BoardParams& params);

}  // namespace vs::apps
