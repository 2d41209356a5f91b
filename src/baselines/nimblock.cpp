#include "baselines/nimblock.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "apps/bundling.h"

namespace vs::baselines {

void NimblockPolicy::on_app_submitted(runtime::BoardRuntime& rt, int app_id) {
  const runtime::AppRun& app = rt.app(app_id);
  AppState s;
  s.optimal_little = optimal_little(rt, app);
  s.full_estimate = apps::estimate_little_makespan(
      *app.spec, app.batch, s.optimal_little, rt.board().params());
  auto index = static_cast<std::size_t>(app_id);
  if (index >= state_.size()) state_.resize(index + 1);
  state_[index] = s;
}

void NimblockPolicy::on_pass(runtime::BoardRuntime& rt) {
  const std::vector<int>& live = rt.live_ids();
  if (live.empty()) return;

  // Priority: shortest estimated remaining work first — the full estimate
  // scaled by the fraction of batch-items still outstanding. live_ids()
  // ascends, so the id in the key breaks ties in submission order.
  keyed_.clear();
  int contenders = 0;
  for (int id : live) {
    const runtime::AppRun& app = rt.app(id);
    std::int64_t total_items =
        static_cast<std::int64_t>(app.units.size()) * app.batch;
    std::int64_t done_items = 0;
    for (const runtime::UnitRun& u : app.units) done_items += u.items_done;
    sim::SimDuration estimate = state(id).full_estimate;
    if (total_items > 0) {
      estimate = estimate * (total_items - done_items) / total_items;
    }
    keyed_.emplace_back(estimate, id);
    if (app.units_pending() > 0) ++contenders;
  }
  std::sort(keyed_.begin(), keyed_.end());

  // Dynamic slot allocation: under contention the per-app slot count is
  // shrunk toward the fair share, trading pipeline depth for throughput
  // (Nimblock's adaptive virtual-block sizing).
  int total_little = rt.board().count_slots(fpga::SlotKind::kLittle);
  int fair_share =
      contenders > 0 ? std::max(1, total_little / contenders) : total_little;
  order_.clear();
  caps_.clear();
  for (const auto& [estimate, id] : keyed_) {
    order_.push_back(id);
    caps_.push_back(std::min(state(id).optimal_little, fair_share));
  }
  grant_little_slots(rt, order_, caps_, idle_);
  maybe_preempt(rt);
}

void NimblockPolicy::maybe_preempt(runtime::BoardRuntime& rt) {
  // Only a slot-less app can starve.
  if (rt.slotless_apps() == 0) return;
  const sim::SimTime now = rt.sim().now();
  // Find the highest-priority starving app.
  int starving = -1;
  for (int id : order_) {
    const runtime::AppRun& a = rt.app(id);
    if (a.slotless() && now - a.wait_since >= options_.starvation_threshold) {
      starving = id;
      break;
    }
  }
  if (starving < 0) return;

  // Victim: the lowest-priority app holding more than one slot, not
  // recently preempted, with a unit at an item boundary.
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    int victim = *it;
    if (victim == starving) continue;
    const runtime::AppRun& v = rt.app(victim);
    if (v.units_placed() <= 1) continue;
    const sim::SimTime last = state(victim).last_preempted;
    if (last >= 0 && now - last < options_.preempt_cooldown) continue;
    const std::uint32_t idle = v.idle_units();
    if (idle == 0) continue;
    rt.preempt_unit(victim, std::countr_zero(idle));
    state(victim).last_preempted = now;
    // The freed slot goes to the starving app immediately.
    rt.idle_slots(fpga::SlotKind::kLittle, idle_);
    int pending = rt.app(starving).next_pending_unit();
    if (!idle_.empty() && pending >= 0) {
      rt.request_pr(starving, pending,
                    rt.take_slot(starving, pending, idle_));
    }
    return;  // at most one preemption per pass
  }
}

}  // namespace vs::baselines
