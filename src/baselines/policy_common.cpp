#include "baselines/policy_common.h"

#include <cassert>

#include "apps/bundling.h"

namespace vs::baselines {

int optimal_little(const runtime::BoardRuntime& rt,
                   const runtime::AppRun& app) {
  return apps::optimal_little_slots(
      *app.spec, app.batch, rt.board().params(),
      rt.board().count_slots(fpga::SlotKind::kLittle));
}

void grant_little_slots(runtime::BoardRuntime& rt,
                        const std::vector<int>& app_order,
                        const std::vector<int>& caps, std::vector<int>& idle) {
  assert(caps.size() == app_order.size());
  rt.idle_slots(fpga::SlotKind::kLittle, idle);
  bool placed_any = true;
  while (placed_any && !idle.empty()) {
    placed_any = false;
    for (std::size_t i = 0; i < app_order.size(); ++i) {
      if (idle.empty()) break;
      int app_id = app_order[i];
      if (!rt.live(app_id)) continue;
      runtime::AppRun& app = rt.app(app_id);
      if (app.units_placed() >= caps[i]) continue;
      int unit = app.next_pending_unit();
      if (unit < 0) continue;
      rt.request_pr(app_id, unit, rt.take_slot(app_id, unit, idle));
      placed_any = true;
    }
  }
}

}  // namespace vs::baselines
