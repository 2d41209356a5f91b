#include "baselines/round_robin.h"

#include <algorithm>

namespace vs::baselines {

void RoundRobinPolicy::on_pass(runtime::BoardRuntime& rt) {
  // Coyote-style round-robin: like FCFS each application runs its tasks
  // sequentially through one Little slot, but free slots are offered to
  // applications in cyclic order, so late arrivals are not starved by a
  // long head-of-line application.
  std::vector<int> order = rt.live_ids();
  if (order.empty()) return;
  std::size_t start = cursor_ % order.size();
  std::rotate(order.begin(),
              order.begin() + static_cast<std::ptrdiff_t>(start),
              order.end());

  rt.idle_slots(fpga::SlotKind::kLittle, idle_);
  int granted = 0;
  for (int id : order) {
    if (idle_.empty()) break;
    runtime::AppRun& app = rt.app(id);
    if (app.units_placed() >= 1) continue;
    int unit = app.next_pending_unit();
    if (unit < 0) continue;
    rt.request_pr(id, unit, take_slot(rt, id, unit, idle_));
    ++granted;
  }
  cursor_ += static_cast<std::size_t>(granted) + 1;
}

}  // namespace vs::baselines
