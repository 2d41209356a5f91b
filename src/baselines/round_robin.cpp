#include "baselines/round_robin.h"

namespace vs::baselines {

void RoundRobinPolicy::on_pass(runtime::BoardRuntime& rt) {
  // Coyote-style round-robin: like FCFS each application runs its tasks
  // sequentially through one Little slot, but free slots are offered to
  // applications in cyclic order, so late arrivals are not starved by a
  // long head-of-line application. Visiting live[(start + k) % n] for
  // k = 0..n-1 walks the live index rotated to start at the cursor.
  const std::vector<int>& live = rt.live_ids();
  const std::size_t n = live.size();
  if (n == 0) return;
  const std::size_t start = cursor_ % n;

  rt.idle_slots(fpga::SlotKind::kLittle, idle_);
  int granted = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (idle_.empty()) break;
    int id = live[(start + k) % n];
    runtime::AppRun& app = rt.app(id);
    if (app.units_placed() >= 1) continue;
    int unit = app.next_pending_unit();
    if (unit < 0) continue;
    rt.request_pr(id, unit, rt.take_slot(id, unit, idle_));
    ++granted;
  }
  cursor_ += static_cast<std::size_t>(granted) + 1;
}

}  // namespace vs::baselines
