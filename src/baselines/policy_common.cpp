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

int take_slot(runtime::BoardRuntime& rt, int app_id, int unit,
              std::vector<int>& idle) {
  int slot = rt.choose_slot(app_id, unit, idle);
  idle.erase(std::find(idle.begin(), idle.end(), slot));
  return slot;
}

void grant_little_slots(runtime::BoardRuntime& rt,
                        const std::vector<int>& app_order,
                        const std::unordered_map<int, int>& caps,
                        std::vector<int>& idle, bool one_per_app) {
  rt.idle_slots(fpga::SlotKind::kLittle, idle);
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
      int unit = app.next_pending_unit();
      if (unit < 0) continue;
      rt.request_pr(app_id, unit, take_slot(rt, app_id, unit, idle));
      placed_any = true;
    }
    if (one_per_app) break;  // a single round only
  }
}

}  // namespace vs::baselines
