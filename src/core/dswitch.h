// The performance-degradation metric D_switch (Eq. 1) and the
// Schmitt-trigger switch loop (§III-D, Fig 4).
//
//   D_switch = (N_blocked_tasks / N_PR) · (N_apps / N_batch),  0 < D < 1
//
// The first ratio measures the PR-contention degree observed in the current
// sampling window (tasks blocked behind PCAP loads or core suspensions,
// over PR operations issued); the second estimates *future* contention from
// the candidate queue: many apps with small batches means near-worst-case
// PR conflict (N_batch == N_apps is the paper's maximum-D scenario).
//
// The metric is recomputed every SwitchLoop::kPeriod updates of the
// application candidate queue (arrivals and completions). The switch loop
// compares it against two user-configurable thresholds T1 > T2 with the
// buffer zone in between providing hysteresis (Schmitt trigger): crossing
// T1 upward switches Only.Little -> Big.Little; falling to T2 switches
// back; inside the buffer zone the anticipated target configuration is
// pre-warmed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace vs::core {

struct DSwitchSample {
  sim::SimTime time = 0;
  double value = 0.0;
  std::int64_t blocked = 0;   ///< N_blocked_tasks in the window
  std::int64_t prs = 0;       ///< N_PR in the window
  int apps = 0;               ///< N_apps in the candidate queue
  std::int64_t batch = 0;     ///< N_batch of the candidate queue
};

/// Computes one D_switch value; all clamping per Eq. (1)'s (0,1) range.
[[nodiscard]] inline double dswitch_value(std::int64_t blocked,
                                          std::int64_t prs, int apps,
                                          std::int64_t batch) noexcept {
  if (prs <= 0 || batch <= 0 || apps <= 0) return 0.0;
  double contention =
      static_cast<double>(blocked) / static_cast<double>(prs);
  double future = static_cast<double>(apps) / static_cast<double>(batch);
  return std::clamp(contention * future, 0.0, 1.0);
}

/// The whole §III-D control loop: the sampling cadence, the sample history
/// (Fig 8's trace), the hold rule, two stabilisation gates and the Schmitt
/// trigger on T1/T2. The cluster only sums a sample and acts on the action.
class SwitchLoop {
 public:
  enum class Config { kOnlyLittle, kBigLittle };
  enum class Action { kNone, kPrewarmBigLittle, kPrewarmOnlyLittle,
                      kSwitchToBigLittle, kSwitchToOnlyLittle };

  /// Candidate-queue updates (arrivals and completions) per sample.
  static constexpr int kPeriod = 4;
  /// Stabilisation: samples to observe before the loop may act, and the
  /// candidate-queue depth an upward switch needs (early samples are noisy
  /// — a couple of blocked PRs against a near-empty queue can spike the
  /// ratio without any sustained contention).
  static constexpr int kWarmupSamples = 4;
  static constexpr int kMinQueue = 4;

  /// With `enabled` false the loop records every sample and never acts.
  SwitchLoop(double t1, double t2, bool enabled = true) noexcept
      : t1_(t1), t2_(t2), enabled_(enabled) {}

  /// Registers one candidate-queue update; true when a sample is due.
  [[nodiscard]] bool on_queue_update() noexcept {
    if (++updates_ < kPeriod) return false;
    updates_ = 0;
    return true;
  }

  /// Gives the sample its value, records it and returns the action the
  /// cluster must take (the Schmitt trigger behind both gates).
  [[nodiscard]] Action feed(DSwitchSample sample) {
    // No PR activity this window (slots are mid-batch): the sample carries
    // no new contention information, so hold the previous level instead of
    // reporting a spurious zero.
    const double d = sample.prs == 0 && sample.apps > 0
                         ? last()
                         : dswitch_value(sample.blocked, sample.prs,
                                         sample.apps, sample.batch);
    sample.value = d;
    trace_.push_back(sample);
    if (!enabled_ || trace_.size() <= kWarmupSamples) return Action::kNone;
    if (config_ == Config::kOnlyLittle) {
      // No sustained backlog: an upward switch would thrash.
      if (sample.apps < kMinQueue) return Action::kNone;
      if (d >= t1_) {
        config_ = Config::kBigLittle;
        return Action::kSwitchToBigLittle;
      }
      if (d > t2_) return Action::kPrewarmBigLittle;  // buffer zone, rising
    } else {
      // The backlog persists: keep the contention-friendly fabric.
      if (sample.apps > kMinQueue) return Action::kNone;
      if (d <= t2_) {
        config_ = Config::kOnlyLittle;
        return Action::kSwitchToOnlyLittle;
      }
      if (d < t1_) return Action::kPrewarmOnlyLittle;  // buffer zone, falling
    }
    return Action::kNone;
  }

  /// Sets the configuration without a sample: a failover to the spare
  /// pool, or a deferred switch reverting so a later sample can retrigger
  /// it.
  void force(Config config) noexcept { config_ = config; }

  [[nodiscard]] const std::vector<DSwitchSample>& trace() const noexcept {
    return trace_;
  }
  [[nodiscard]] double last() const noexcept {
    return trace_.empty() ? 0.0 : trace_.back().value;
  }
  [[nodiscard]] Config config() const noexcept { return config_; }
  [[nodiscard]] double t1() const noexcept { return t1_; }
  [[nodiscard]] double t2() const noexcept { return t2_; }

 private:
  double t1_;
  double t2_;
  bool enabled_;
  Config config_ = Config::kOnlyLittle;
  int updates_ = 0;
  std::vector<DSwitchSample> trace_;
};

}  // namespace vs::core
