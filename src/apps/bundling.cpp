#include "apps/bundling.h"

#include <algorithm>
#include <cassert>

namespace vs::apps {

namespace {

/// choose_mode for a bundle of `g` tasks whose latencies peak at `tmax` and
/// sum to `sum`.
BundleMode mode_for(sim::SimDuration tmax, sim::SimDuration sum,
                    sim::SimDuration g, int batch) {
  assert(g >= 1 && batch >= 1);
  if (g == 1) return BundleMode::kSingle;
  sim::SimDuration parallel_makespan =
      tmax * (static_cast<sim::SimDuration>(batch) + g - 1);
  sim::SimDuration serial_makespan =
      sum * static_cast<sim::SimDuration>(batch);
  return parallel_makespan <= serial_makespan ? BundleMode::kParallel
                                              : BundleMode::kSerial;
}

/// The Big-slot unit bundling tasks [first, last] of `app` (see
/// make_big_units).
UnitSpec make_bundle(const AppSpec& app, int first, int last, int batch,
                     const fpga::BoardParams& params,
                     const SynthesisModel& model,
                     std::optional<BundleMode> forced_mode) {
  UnitSpec u;
  u.first_task = first;
  u.last_task = last;
  u.slot_kind = fpga::SlotKind::kBig;
  sim::SimDuration tmax = 0;
  sim::SimDuration sum = 0;
  fpga::ResourceVector impl_sum;
  for (int t = first; t <= last; ++t) {
    const TaskSpec& task = app.tasks[static_cast<std::size_t>(t)];
    tmax = std::max(tmax, task.item_latency);
    sum += task.item_latency;
    u.synth_usage += task.synth_usage;  // model.bundle_synth of the parts
    impl_sum += model.implement(task.synth_usage);
  }
  const auto g = static_cast<sim::SimDuration>(u.task_count());
  u.mode = (forced_mode.has_value() && g > 1) ? *forced_mode
                                              : mode_for(tmax, sum, g, batch);
  if (u.mode == BundleMode::kParallel) {
    u.item_latency = tmax;
    u.fill_latency = tmax * (g - 1);
  } else {
    u.item_latency = sum;
    u.fill_latency = 0;
  }
  u.impl_usage = g > 1 ? model.share(impl_sum) : impl_sum;
  u.bitstream_bytes = params.big_bitstream_bytes;
  u.item_bytes_in = app.tasks[static_cast<std::size_t>(first)].item_bytes_in;
  u.item_bytes_out = app.tasks[static_cast<std::size_t>(last)].item_bytes_out;
  return u;
}

}  // namespace

BundleMode choose_mode(const std::vector<sim::SimDuration>& latencies,
                       int batch) {
  sim::SimDuration tmax = 0;
  sim::SimDuration sum = 0;
  for (sim::SimDuration t : latencies) {
    tmax = std::max(tmax, t);
    sum += t;
  }
  return mode_for(tmax, sum, static_cast<sim::SimDuration>(latencies.size()),
                  batch);
}

std::vector<UnitSpec> make_little_units(const AppSpec& app) {
  std::vector<UnitSpec> units;
  units.reserve(app.tasks.size());
  for (const TaskSpec& task : app.tasks) {
    UnitSpec u;
    u.first_task = u.last_task = task.index;
    u.slot_kind = fpga::SlotKind::kLittle;
    u.mode = BundleMode::kSingle;
    u.item_latency = task.item_latency;
    u.fill_latency = 0;
    u.synth_usage = task.synth_usage;
    u.impl_usage = task.impl_usage;
    u.bitstream_bytes = task.bitstream_bytes;
    u.item_bytes_in = task.item_bytes_in;
    u.item_bytes_out = task.item_bytes_out;
    units.push_back(u);
  }
  return units;
}

void make_big_units(std::vector<UnitSpec>& units, const AppSpec& app,
                    int batch, const fpga::BoardParams& params,
                    const SynthesisModel& model, int bundle_size,
                    std::optional<BundleMode> forced_mode) {
  assert(bundle_size >= 1);
  units.clear();
  const int n = app.task_count();
  for (int first = 0; first < n; first += bundle_size) {
    const int last = std::min(first + bundle_size, n) - 1;
    units.push_back(
        make_bundle(app, first, last, batch, params, model, forced_mode));
  }
}

bool can_bundle(const AppSpec& app, const fpga::BoardParams& params,
                const SynthesisModel& model, int bundle_size) {
  assert(bundle_size >= 1);
  if (app.task_count() < 2) return false;  // nothing to bundle
  // Representative batch of 1 for mode choice; fit does not depend on mode.
  const int n = app.task_count();
  for (int first = 0; first < n; first += bundle_size) {
    const int last = std::min(first + bundle_size, n) - 1;
    const UnitSpec u =
        make_bundle(app, first, last, 1, params, model, std::nullopt);
    if (!params.big_slot.fits(u.impl_usage)) return false;
  }
  return true;
}

sim::SimDuration estimate_little_makespan(const AppSpec& app, int batch,
                                          int k,
                                          const fpga::BoardParams& params) {
  assert(k >= 1);
  const int n = app.task_count();
  sim::SimDuration pr =
      params.pcap_load_time(params.little_bitstream_bytes);
  // Tasks run in ceil(n/k) groups of at most k pipelined stages; each group
  // costs a pipeline fill plus the batch at the group's bottleneck rate.
  // PRs for a group overlap with the previous group's execution except for
  // the first, so charge one PR chain of k loads per group conservatively
  // halved by overlap.
  sim::SimDuration total = 0;
  int groups = (n + k - 1) / k;
  for (int g = 0; g < groups; ++g) {
    int first = g * k;
    int last = std::min(first + k, n) - 1;
    sim::SimDuration tmax = 0;
    for (int t = first; t <= last; ++t) {
      tmax = std::max(tmax,
                      app.tasks[static_cast<std::size_t>(t)].item_latency);
    }
    int width = last - first + 1;
    total += tmax * static_cast<sim::SimDuration>(batch + width - 1);
    total += pr * static_cast<sim::SimDuration>(width) / 2 + pr / 2;
  }
  return total;
}

int optimal_little_slots(const AppSpec& app, int batch,
                         const fpga::BoardParams& params, int max_slots) {
  const int n = app.task_count();
  int limit = std::min(n, std::max(1, max_slots));
  int best_k = 1;
  sim::SimDuration best = estimate_little_makespan(app, batch, 1, params);
  for (int k = 2; k <= limit; ++k) {
    sim::SimDuration est = estimate_little_makespan(app, batch, k, params);
    if (est < best) {
      best = est;
      best_k = k;
    }
  }
  return best_k;
}

int optimal_big_slots(const AppSpec& app, int bundle_size) {
  assert(bundle_size >= 1);
  return (app.task_count() + bundle_size - 1) / bundle_size;
}

}  // namespace vs::apps
