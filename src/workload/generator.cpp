#include "workload/generator.h"

#include <cassert>
#include <cmath>

namespace vs::workload {

const char* congestion_name(Congestion c) noexcept {
  switch (c) {
    case Congestion::kLoose: return "Loose";
    case Congestion::kStandard: return "Standard";
    case Congestion::kStress: return "Stress";
    case Congestion::kRealtime: return "Real-time";
  }
  return "?";
}

sim::SimDuration draw_interval(Congestion c, util::Rng& rng) {
  switch (c) {
    case Congestion::kLoose:
      return sim::ms(5000.0);
    case Congestion::kStandard:
      return sim::ms(static_cast<double>(rng.uniform_int(1500, 2000)));
    case Congestion::kStress:
      return sim::ms(static_cast<double>(rng.uniform_int(150, 200)));
    case Congestion::kRealtime:
      return sim::ms(50.0);
  }
  return sim::ms(1000.0);
}

Sequence generate_sequence(const WorkloadConfig& config, util::Rng& rng) {
  assert(config.apps_per_sequence >= 1);
  assert(config.suite_size >= 1);
  Sequence seq;
  seq.reserve(static_cast<std::size_t>(config.apps_per_sequence));
  sim::SimTime t = 0;
  for (int i = 0; i < config.apps_per_sequence; ++i) {
    apps::AppArrival a;
    a.spec_index =
        static_cast<int>(rng.uniform_int(0, config.suite_size - 1));
    a.batch = static_cast<int>(rng.uniform_int(kMinBatch, kMaxBatch));
    a.arrival = t;
    seq.push_back(a);
    t += draw_interval(config.congestion, rng);
  }
  return seq;
}

std::vector<Sequence> generate_sequences(const WorkloadConfig& config,
                                         int count,
                                         std::uint64_t master_seed) {
  std::vector<Sequence> out;
  out.reserve(static_cast<std::size_t>(count));
  util::Rng master(master_seed);
  for (int i = 0; i < count; ++i) {
    util::Rng stream = master.fork("sequence-" + std::to_string(i));
    out.push_back(generate_sequence(config, stream));
  }
  return out;
}

// --- Open-loop arrival processes ---------------------------------------

namespace {

/// Exponential inter-arrival draw in seconds. uniform01() is in [0, 1), so
/// 1 - u is in (0, 1] and the log is finite.
double exp_interval_s(double rate_per_s, util::Rng& rng) {
  return -std::log(1.0 - rng.uniform01()) / rate_per_s;
}

}  // namespace

std::vector<sim::SimTime> ArrivalProcess::generate(sim::SimDuration horizon,
                                                   util::Rng& rng) const {
  std::vector<sim::SimTime> out;
  if (horizon <= 0) return out;
  const double horizon_s = sim::to_seconds(horizon);
  switch (kind) {
    case ArrivalKind::kPoisson: {
      if (rate_per_s <= 0) return out;
      double t = 0;
      for (;;) {
        t += exp_interval_s(rate_per_s, rng);
        if (t >= horizon_s) break;
        out.push_back(sim::seconds(t));
      }
      break;
    }
    case ArrivalKind::kMmpp: {
      if (rate_per_s <= 0 && burst_rate_per_s <= 0) return out;
      assert(burst_on_s > 0 && burst_off_s > 0);
      // The chain starts in the quiet state. Memorylessness lets us discard
      // the partial inter-arrival interval at every state switch.
      bool burst = false;
      double t = 0;
      double t_switch = burst_off_s * exp_interval_s(1.0, rng);
      while (t < horizon_s) {
        double rate = burst ? burst_rate_per_s : rate_per_s;
        if (rate <= 0) {
          // Silent state: jump straight to the next state boundary.
          t = t_switch;
          burst = !burst;
          t_switch = t + (burst ? burst_on_s : burst_off_s) *
                             exp_interval_s(1.0, rng);
          continue;
        }
        double next = t + exp_interval_s(rate, rng);
        if (next < t_switch) {
          t = next;
          if (t < horizon_s) out.push_back(sim::seconds(t));
        } else {
          t = t_switch;
          burst = !burst;
          t_switch = t + (burst ? burst_on_s : burst_off_s) *
                             exp_interval_s(1.0, rng);
        }
      }
      break;
    }
    case ArrivalKind::kDiurnal: {
      if (rate_per_s <= 0) return out;
      assert(diurnal_depth >= 0 && diurnal_depth <= 1);
      assert(diurnal_period_s > 0);
      // Lewis-Shedler thinning against the peak rate.
      const double peak = rate_per_s * (1.0 + diurnal_depth);
      const double two_pi = 2.0 * 3.14159265358979323846;
      double t = 0;
      for (;;) {
        t += exp_interval_s(peak, rng);
        if (t >= horizon_s) break;
        double rate_t =
            rate_per_s *
            (1.0 + diurnal_depth * std::sin(two_pi * t / diurnal_period_s));
        if (rng.uniform01() * peak < rate_t) out.push_back(sim::seconds(t));
      }
      break;
    }
  }
  return out;
}

}  // namespace vs::workload
