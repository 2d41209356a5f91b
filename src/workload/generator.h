// Workload generation matching the paper's evaluation setup (§IV):
// randomly generated application sequences (10 sequences × 20 apps for
// Figs 5/6; 3 × 80 apps for Fig 8) with random batch sizes in [5, 30] and
// one of four arrival-interval regimes:
//   Loose      5000 ms fixed
//   Standard   uniform 1500–2000 ms
//   Stress     uniform 150–200 ms
//   Real-time  50 ms fixed
#pragma once

#include <string>
#include <vector>

#include "apps/task.h"
#include "util/rng.h"

namespace vs::workload {

enum class Congestion { kLoose = 0, kStandard = 1, kStress = 2, kRealtime = 3 };

constexpr int kCongestionCount = 4;

[[nodiscard]] const char* congestion_name(Congestion c) noexcept;

/// Per-app batch sizes are drawn from U[kMinBatch, kMaxBatch], the paper's
/// U[5, 30].
inline constexpr int kMinBatch = 5;
inline constexpr int kMaxBatch = 30;

struct WorkloadConfig {
  Congestion congestion = Congestion::kStandard;
  int apps_per_sequence = 20;
  int suite_size = 5;  ///< number of distinct application specs to draw from
};

/// One generated sequence: arrivals sorted by time.
using Sequence = std::vector<apps::AppArrival>;

/// Generates a single sequence. Deterministic in (config, rng state).
[[nodiscard]] Sequence generate_sequence(const WorkloadConfig& config,
                                         util::Rng& rng);

/// Generates `count` sequences from a master seed, each with an
/// independent derived stream (so sequences do not correlate).
[[nodiscard]] std::vector<Sequence> generate_sequences(
    const WorkloadConfig& config, int count, std::uint64_t master_seed);

/// Arrival interval draw for a congestion regime, in nanoseconds.
[[nodiscard]] sim::SimDuration draw_interval(Congestion c, util::Rng& rng);

// --- Open-loop arrival processes (serving plane) -----------------------
//
// Unlike the closed ~N-app sequences above, the serving plane replays
// open-loop traffic: a tenant keeps submitting on its own clock whether or
// not the cluster keeps up. Each process generates its full arrival-time
// trace up front from one forked Rng stream, so a schedule is a pure
// function of (config, seed) — independent of kernel worker count,
// telemetry, and whatever the cluster does with the jobs.

enum class ArrivalKind {
  kPoisson = 0,  ///< homogeneous: exponential inter-arrivals at rate_per_s
  kMmpp = 1,     ///< 2-state Markov-modulated: quiet/burst rate switching
  kDiurnal = 2,  ///< sinusoidally modulated rate (Lewis-Shedler thinning)
};

constexpr int kArrivalKindCount = 3;

/// One tenant's arrival process. A non-positive base rate emits nothing
/// (and an MMPP whose burst rate is also non-positive emits nothing).
struct ArrivalProcess {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate_per_s = 1.0;  ///< base rate (MMPP: quiet-state rate)
  // MMPP (2-state): burst-state rate and mean exponential sojourn times.
  // The chain starts quiet; sojourn means must be positive when used.
  double burst_rate_per_s = 0.0;
  double burst_on_s = 1.0;   ///< mean burst-window length
  double burst_off_s = 4.0;  ///< mean quiet-window length
  // Diurnal: rate(t) = rate_per_s * (1 + depth * sin(2*pi*t/period)),
  // depth in [0, 1] — a compressed day/night cycle.
  double diurnal_depth = 0.5;
  double diurnal_period_s = 60.0;

  /// Arrival times in [0, horizon), ascending, drawn from `rng`.
  [[nodiscard]] std::vector<sim::SimTime> generate(sim::SimDuration horizon,
                                                   util::Rng& rng) const;
};

}  // namespace vs::workload
