#include "core/versaslot_policy.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "apps/synthesis.h"
#include "runtime/board_runtime.h"

namespace vs::core {

void VersaSlotPolicy::on_app_submitted(runtime::BoardRuntime& rt,
                                       int app_id) {
  AppState s;
  const runtime::AppRun& app = rt.app(app_id);
  int total_little = rt.board().count_slots(fpga::SlotKind::kLittle);
  s.optimal_little = apps::optimal_little_slots(
      *app.spec, app.batch, rt.board().params(), std::max(total_little, 1));
  s.optimal_big = apps::optimal_big_slots(*app.spec, options_.bundle_size);
  auto index = static_cast<std::size_t>(app_id);
  if (index >= state_.size()) state_.resize(index + 1);
  state_[index] = s;
  auto spec = static_cast<std::size_t>(app.spec_index);
  if (spec >= bundleable_.size()) bundleable_.resize(spec + 1, kUnchecked);
}

bool VersaSlotPolicy::bundles(const runtime::BoardRuntime& rt,
                              const runtime::AppRun& a) {
  if (a.started) return false;
  std::int8_t& verdict = bundleable_[static_cast<std::size_t>(a.spec_index)];
  if (verdict == kUnchecked) {
    verdict = apps::can_bundle(*a.spec, rt.board().params(),
                               apps::SynthesisModel{}, options_.bundle_size)
                  ? 1
                  : 0;
  }
  return verdict != 0;
}

bool VersaSlotPolicy::big_eligible(const runtime::BoardRuntime& rt,
                                   const runtime::AppRun& a,
                                   int little_total) {
  if (bundles(rt, a)) return true;
  if (little_total > 0) return false;
  // On a fabric without Little slots, non-bundleable apps also bind Big
  // when their units fit (bitstreams are generated "adaptive to each
  // slot").
  apps::make_big_units(big_units_, *a.spec, a.batch, rt.board().params(),
                       apps::SynthesisModel{}, options_.bundle_size);
  bool fits = true;
  for (const apps::UnitSpec& u : big_units_) {
    fits &= rt.board().params().big_slot.fits(u.impl_usage);
  }
  return fits;
}

void VersaSlotPolicy::on_pass(runtime::BoardRuntime& rt) {
  allocate(rt);
  schedule(rt);
  preempt_little(rt);
}

void VersaSlotPolicy::bind_metrics(obs::MetricsRegistry& registry,
                                   const std::string& board) {
  // The board label keeps same-policy epochs on different boards in
  // distinct cells, so each board's decisions export separately.
  obs::Labels labels{{"policy", name()}, {"board", board}};
  m_big_bindings_ = obs::CounterHandle{
      &registry.counter("vs_policy_big_bindings_total", labels)};
  m_little_bindings_ = obs::CounterHandle{
      &registry.counter("vs_policy_little_bindings_total", labels)};
  m_bundles_ = obs::CounterHandle{
      &registry.counter("vs_policy_bundle_hits_total", labels)};
  m_rebindings_ = obs::CounterHandle{
      &registry.counter("vs_policy_rebindings_total", labels)};
  m_redistributed_ = obs::CounterHandle{
      &registry.counter("vs_policy_redistributed_slots_total", labels)};
  m_preemptions_ = obs::CounterHandle{
      &registry.counter("vs_policy_preemptions_total", labels)};
}

// --------------------------------------------------------------- Algorithm 1
void VersaSlotPolicy::allocate(runtime::BoardRuntime& rt) {
  // Nothing it reads has changed since a run that changed nothing.
  if (rt.allocation_changes() == allocate_memo_) return;
  const bool big_little = options_.mode == VersaSlotOptions::Mode::kBigLittle;
  const int big_total = rt.board().count_slots(fpga::SlotKind::kBig);
  const int little_total = rt.board().count_slots(fpga::SlotKind::kLittle);

  // Reserved Big slots: every Big-bound app keeps min(alloc, remaining
  // bundles) reserved until it finishes (line 1 of Algorithm 1).
  int big_reserved = 0;
  int little_reserved = 0;
  for (int id : rt.live_ids()) {
    const runtime::AppRun& a = rt.app(id);
    const AppState& s = state(id);
    if (s.binding == Binding::kBig) {
      big_reserved += std::min(s.alloc_big, a.units_unfinished());
    } else if (s.binding == Binding::kLittle) {
      little_reserved += std::min(s.alloc_little, a.units_unfinished());
    }
  }
  int big_avail = big_total - big_reserved;
  int little_left = little_total - little_reserved;

  if (big_avail <= 0 && little_left <= 0) {  // line 2: nothing to do
    allocate_memo_ = rt.allocation_changes();
    return;
  }
  bool changed = false;

  // Rebinding (lines 4-6): Little-bound apps that have not started return
  // to the waiting list when Big slots could take them.
  if (big_little && options_.enable_rebinding && big_avail > 0) {
    for (int id : rt.live_ids()) {
      const runtime::AppRun& a = rt.app(id);
      if (a.started) continue;
      AppState& s = state(id);
      if (s.binding == Binding::kLittle) {
        little_left += std::min(s.alloc_little, a.units_unfinished());
        s.binding = Binding::kWaiting;
        s.alloc_little = 0;
        changed = true;
        m_rebindings_.add();
      }
    }
  }

  // Primary allocation (lines 7-13), waiting apps in arrival order.
  for (int id : rt.live_ids()) {
    const runtime::AppRun& a = rt.app(id);
    AppState& s = state(id);
    if (s.binding != Binding::kWaiting) continue;

    // Binding: prioritise Big slots for bundleable apps (lines 8-10). Only
    // a Big.Little pass with a Big slot to grant asks, since Only.Little
    // never binds Big.
    if (big_little && big_avail > 0 && big_eligible(rt, a, little_total)) {
      int grant = std::min(s.optimal_big, big_avail);
      s.binding = Binding::kBig;
      s.alloc_big = grant;
      big_avail -= grant;
      changed = true;
      m_big_bindings_.add();
      if (bundles(rt, a)) m_bundles_.add();
      // Online 3-in-1 bundling: re-unitise for Big-slot execution now that
      // the binding is decided (Algorithm 2 lines 4-7).
      apps::make_big_units(big_units_, *a.spec, a.batch, rt.board().params(),
                           apps::SynthesisModel{}, options_.bundle_size,
                           options_.forced_bundle_mode);
      rt.set_units(id, big_units_);
      continue;
    }
    // Binding with Little slots (lines 11-13).
    if (little_left > 0) {
      int grant = std::min(s.optimal_little, little_left);
      s.binding = Binding::kLittle;
      s.alloc_little = grant;
      little_left -= grant;
      changed = true;
      m_little_bindings_.add();
    }
  }

  // Redistribution of leftover Little slots (lines 14-18): runnable-queue
  // front first, up to each app's remaining-unit demand.
  if (options_.enable_redistribution && little_left > 0) {
    for (int id : rt.live_ids()) {
      if (little_left <= 0) break;
      const runtime::AppRun& a = rt.app(id);
      AppState& s = state(id);
      if (s.binding != Binding::kLittle) continue;
      int delta = a.units_unfinished() - s.alloc_little;
      if (delta <= 0) continue;
      int extra = std::min(delta, little_left);
      s.alloc_little += extra;
      little_left -= extra;
      changed = true;
      m_redistributed_.add(extra);
    }
  }
  if (changed) {
    sweep_memo_ = kStale;
  } else {
    allocate_memo_ = rt.allocation_changes();
  }
}

// --------------------------------------------------------------- Algorithm 2
void VersaSlotPolicy::schedule(runtime::BoardRuntime& rt) {
  // A sweep ends where another would place nothing; with nothing it reads
  // changed since, it still would.
  if (rt.allocation_changes() == sweep_memo_) return;
  // Schedule pending units to idle slots within each app's allocation
  // (lines 13-19). PR requests are asynchronous: in dual-core mode they are
  // queued on the PR-server core and this pass continues immediately.
  rt.idle_slots(fpga::SlotKind::kBig, idle_big_);
  rt.idle_slots(fpga::SlotKind::kLittle, idle_little_);

  // A sweep with no idle slot of either kind places nothing, so none runs.
  bool placed = true;
  while (placed && (!idle_big_.empty() || !idle_little_.empty())) {
    placed = false;
    for (int id : rt.live_ids()) {
      const runtime::AppRun& a = rt.app(id);
      AppState& s = state(id);
      int unit = a.next_pending_unit();
      if (unit < 0) continue;
      if (s.binding == Binding::kBig && !idle_big_.empty() &&
          a.units_placed() < s.alloc_big) {
        rt.request_pr(id, unit, rt.take_slot(id, unit, idle_big_));
        placed = true;
      } else if (s.binding == Binding::kLittle && !idle_little_.empty() &&
                 a.units_placed() < s.alloc_little) {
        rt.request_pr(id, unit, rt.take_slot(id, unit, idle_little_));
        placed = true;
      }
    }
  }
  sweep_memo_ = rt.allocation_changes();
}

void VersaSlotPolicy::preempt_little(runtime::BoardRuntime& rt) {
  // Preemption applies only in Little slots (§III-C2): find the longest
  // slot-less waiter past the threshold — either a Little-bound app whose
  // slots were all taken, or an app still waiting for any binding because
  // redistribution handed every Little slot to earlier apps. With no app
  // slot-less there is none.
  if (rt.slotless_apps() == 0) return;
  int starving = -1;
  sim::SimTime oldest = rt.sim().now();
  for (int id : rt.live_ids()) {
    const runtime::AppRun& a = rt.app(id);
    if (state(id).binding == Binding::kBig || !a.slotless()) continue;
    if (rt.sim().now() - a.wait_since < options_.starvation_threshold) {
      continue;
    }
    if (a.wait_since <= oldest) {
      oldest = a.wait_since;
      starving = id;
    }
  }
  if (starving < 0) return;

  // ... and take one slot from the Little-bound app holding the most.
  int victim = -1;
  int victim_held = 1;  // must hold more than one slot to be preempted
  for (int id : rt.live_ids()) {
    if (id == starving) continue;
    const AppState& s = state(id);
    if (s.binding != Binding::kLittle) continue;
    if (rt.sim().now() - s.last_preempted < options_.preempt_cooldown &&
        s.last_preempted >= 0) {
      continue;
    }
    int held = rt.app(id).units_placed();
    if (held > victim_held) {
      victim_held = held;
      victim = id;
    }
  }
  if (victim < 0) return;

  // The victim's first unit between items gives up its slot.
  const std::uint32_t idle = rt.app(victim).idle_units();
  if (idle == 0) return;
  rt.preempt_unit(victim, std::countr_zero(idle));
  m_preemptions_.add();
  AppState& vs_state = state(victim);
  vs_state.last_preempted = rt.sim().now();
  if (vs_state.alloc_little > 1) --vs_state.alloc_little;
  AppState& st = state(starving);
  st.binding = Binding::kLittle;  // waiting apps enter the Little pool
  st.alloc_little = std::max(st.alloc_little, 1);
  rt.idle_slots(fpga::SlotKind::kLittle, idle_little_);
  int pending = rt.app(starving).next_pending_unit();
  if (!idle_little_.empty() && pending >= 0) {
    rt.request_pr(starving, pending,
                  rt.take_slot(starving, pending, idle_little_));
  }
}

}  // namespace vs::core
