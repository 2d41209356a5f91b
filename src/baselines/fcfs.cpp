#include "baselines/fcfs.h"

namespace vs::baselines {

void FcfsPolicy::on_pass(runtime::BoardRuntime& rt) {
  // Naive first-come-first-served spatio-temporal sharing: each application
  // occupies a single Little slot and its tasks are swapped through it
  // sequentially (one PR per task). Multi-slot pipeline execution is the
  // later contribution of Nimblock/VersaSlot — this policy predates it.
  // Free slots go to the earliest-arrived waiting application.
  rt.idle_slots(fpga::SlotKind::kLittle, idle_);
  for (int id : rt.live_ids()) {
    if (idle_.empty()) break;
    runtime::AppRun& app = rt.app(id);
    if (app.units_placed() >= 1) continue;
    int unit = app.next_pending_unit();
    if (unit < 0) continue;
    rt.request_pr(id, unit, rt.take_slot(id, unit, idle_));
  }
}

}  // namespace vs::baselines
