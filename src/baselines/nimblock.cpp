#include "baselines/nimblock.h"

#include <algorithm>
#include <bit>

#include "apps/bundling.h"

namespace vs::baselines {

void NimblockPolicy::on_app_submitted(runtime::BoardRuntime& rt, int app_id) {
  wait_since_[app_id] = rt.sim().now();
}

sim::SimDuration NimblockPolicy::remaining_estimate(
    runtime::BoardRuntime& rt, const runtime::AppRun& app) {
  int k = alloc_.get(rt, const_cast<runtime::AppRun&>(app));
  sim::SimDuration full = apps::estimate_little_makespan(
      *app.spec, app.batch, k, rt.board().params());
  // Scale by the fraction of batch-items still outstanding.
  std::int64_t total_items =
      static_cast<std::int64_t>(app.units.size()) * app.batch;
  std::int64_t done_items = 0;
  for (const runtime::UnitRun& u : app.units) done_items += u.items_done;
  if (total_items == 0) return full;
  return full * (total_items - done_items) / total_items;
}

void NimblockPolicy::on_pass(runtime::BoardRuntime& rt) {
  const std::vector<int>& order = rt.live_ids();
  if (order.empty()) return;

  // Priority: shortest estimated remaining work first; FIFO tie-break is
  // implicit via stable_sort over submission order.
  std::vector<std::pair<sim::SimDuration, int>> keyed;
  keyed.reserve(order.size());
  for (int id : order) {
    keyed.emplace_back(remaining_estimate(rt, rt.app(id)), id);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<int> priority_order;
  priority_order.reserve(keyed.size());
  for (const auto& [est, id] : keyed) priority_order.push_back(id);

  // Dynamic slot allocation: under contention the per-app slot count is
  // shrunk toward the fair share, trading pipeline depth for throughput
  // (Nimblock's adaptive virtual-block sizing).
  int total_little = rt.board().count_slots(fpga::SlotKind::kLittle);
  int contenders = 0;
  for (int id : order) {
    if (rt.app(id).units_pending() > 0) ++contenders;
  }
  int fair_share =
      contenders > 0 ? std::max(1, total_little / contenders) : total_little;
  std::unordered_map<int, int> caps;
  for (int id : priority_order) {
    caps[id] = std::min(alloc_.get(rt, rt.app(id)), fair_share);
  }
  grant_little_slots(rt, priority_order, caps, idle_);

  // Track how long apps with pending work have been slot-less.
  for (int id : priority_order) {
    const runtime::AppRun& a = rt.app(id);
    if (a.units_placed() > 0 || a.units_pending() == 0) {
      wait_since_[id] = rt.sim().now();
    }
  }
  maybe_preempt(rt, priority_order);
}

void NimblockPolicy::maybe_preempt(runtime::BoardRuntime& rt,
                                   const std::vector<int>& priority_order) {
  // Find the highest-priority starving app.
  int starving = -1;
  for (int id : priority_order) {
    const runtime::AppRun& a = rt.app(id);
    if (a.units_placed() == 0 && a.units_pending() > 0 &&
        rt.sim().now() - wait_since_[id] >= options_.starvation_threshold) {
      starving = id;
      break;
    }
  }
  if (starving < 0) return;

  // Victim: the lowest-priority app holding more than one slot, not
  // recently preempted, with a unit at an item boundary.
  for (auto it = priority_order.rbegin(); it != priority_order.rend(); ++it) {
    int victim = *it;
    if (victim == starving) continue;
    const runtime::AppRun& v = rt.app(victim);
    if (v.units_placed() <= 1) continue;
    auto lp = last_preempted_.find(victim);
    if (lp != last_preempted_.end() &&
        rt.sim().now() - lp->second < options_.preempt_cooldown) {
      continue;
    }
    const std::uint32_t idle = v.idle_units();
    if (idle == 0) continue;
    rt.preempt_unit(victim, std::countr_zero(idle));
    last_preempted_[victim] = rt.sim().now();
    // The freed slot goes to the starving app immediately.
    rt.idle_slots(fpga::SlotKind::kLittle, idle_);
    int pending = rt.app(starving).next_pending_unit();
    if (!idle_.empty() && pending >= 0) {
      rt.request_pr(starving, pending,
                    rt.choose_slot(starving, pending, idle_));
      wait_since_[starving] = rt.sim().now();
    }
    return;  // at most one preemption per pass
  }
}

}  // namespace vs::baselines
