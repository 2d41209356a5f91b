#include "baselines/dml.h"

namespace vs::baselines {

void DmlPolicy::on_app_submitted(runtime::BoardRuntime& rt, int app_id) {
  auto index = static_cast<std::size_t>(app_id);
  if (index >= optimal_little_.size()) optimal_little_.resize(index + 1);
  optimal_little_[index] = optimal_little(rt, rt.app(app_id));
}

void DmlPolicy::on_pass(runtime::BoardRuntime& rt) {
  // FIFO with backfilling: walk apps in arrival order; running apps top up
  // within their optimal allocation; a waiting app starts only if its full
  // optimal allocation is available *right now*, otherwise it is skipped
  // and later apps may backfill the remaining slots.
  rt.idle_slots(fpga::SlotKind::kLittle, idle_);
  for (int id : rt.live_ids()) {
    if (idle_.empty()) break;
    runtime::AppRun& app = rt.app(id);
    int cap = optimal(id);
    if (app.started) {
      while (app.units_placed() < cap && !idle_.empty()) {
        int unit = app.next_pending_unit();
        if (unit < 0) break;
        rt.request_pr(id, unit, rt.take_slot(id, unit, idle_));
      }
      continue;
    }
    if (app.units_pending() == 0) continue;
    int want = std::min(cap, app.units_unfinished());
    if (static_cast<int>(idle_.size()) < want) continue;  // backfill
    for (int i = 0; i < want; ++i) {
      int unit = app.next_pending_unit();
      if (unit < 0) break;
      rt.request_pr(id, unit, rt.take_slot(id, unit, idle_));
    }
  }
}

}  // namespace vs::baselines
