#include "baselines/baseline_exclusive.h"

#include <vector>

#include "runtime/board_runtime.h"

namespace vs::baselines {

void BaselineExclusivePolicy::on_pass(runtime::BoardRuntime& rt) {
  // Fabric is busy while any started app is unfinished.
  const std::vector<int>& live = rt.live_ids();
  for (int id : live) {
    if (rt.app(id).started) return;
  }
  // Admit the earliest waiting app (FCFS over the exclusive device): with
  // nothing started, that is the first live app.
  if (!live.empty()) rt.request_full_reconfig(live.front());
}

}  // namespace vs::baselines
