#include "baselines/policy_common.h"

#include <algorithm>

#include "apps/bundling.h"

namespace vs::baselines {

int LittleAllocCache::get(runtime::BoardRuntime& rt,
                          const runtime::AppRun& app) {
  auto it = cache_.find(app.id);
  if (it != cache_.end()) return it->second;
  int total_little =
      rt.board().count_slots(fpga::SlotKind::kLittle);
  int alloc = apps::optimal_little_slots(*app.spec, app.batch,
                                         rt.board().params(), total_little);
  cache_.emplace(app.id, alloc);
  return alloc;
}

int next_pending_unit(const runtime::AppRun& app) {
  for (const runtime::UnitRun& u : app.units) {
    if (u.state == runtime::UnitState::kPending) {
      return static_cast<int>(&u - app.units.data());
    }
  }
  return -1;
}

bool has_pending_units(const runtime::AppRun& app) {
  return next_pending_unit(app) >= 0;
}

int take_slot(runtime::BoardRuntime& rt, int app_id, int unit,
              std::vector<int>& idle) {
  int slot = rt.choose_slot(app_id, unit, idle);
  idle.erase(std::find(idle.begin(), idle.end(), slot));
  return slot;
}

void grant_little_slots(runtime::BoardRuntime& rt,
                        const std::vector<int>& app_order,
                        const std::unordered_map<int, int>& caps,
                        bool one_per_app) {
  std::vector<int> idle = rt.idle_slots(fpga::SlotKind::kLittle);
  bool placed_any = true;
  while (placed_any && !idle.empty()) {
    placed_any = false;
    for (int app_id : app_order) {
      if (idle.empty()) break;
      runtime::AppRun& app = rt.app(app_id);
      if (app.spec == nullptr || app.done()) continue;
      auto cap_it = caps.find(app_id);
      int cap = cap_it != caps.end() ? cap_it->second : 1;
      if (app.units_placed() >= cap) continue;
      int unit = next_pending_unit(app);
      if (unit < 0) continue;
      rt.request_pr(app_id, unit, take_slot(rt, app_id, unit, idle));
      placed_any = true;
    }
    if (one_per_app) break;  // a single round only
  }
}

}  // namespace vs::baselines
