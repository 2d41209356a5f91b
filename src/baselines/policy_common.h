// Shared machinery for the slot-sharing comparison policies (FCFS,
// Round-Robin, Nimblock, VersaSlot Only.Little): per-app optimal Little-slot
// allocations and in-order placement of pending pipeline units into free
// slots.
#pragma once

#include <unordered_map>
#include <vector>

#include "runtime/board_runtime.h"

namespace vs::baselines {

/// Cached per-app ILP-optimal Little-slot count (the O^L of the papers).
class LittleAllocCache {
 public:
  int get(runtime::BoardRuntime& rt, const runtime::AppRun& app);

 private:
  std::unordered_map<int, int> cache_;
};

/// Grants idle Little slots to apps in the given order: each app may place
/// pending units (in pipeline order) until it reaches its `cap` placed
/// units or slots run out. `one_per_app` makes a single placement per app
/// per call (round-robin fairness). `idle` is the caller's buffer: it is
/// refilled with the idle Little slots and left holding those not granted.
void grant_little_slots(runtime::BoardRuntime& rt,
                        const std::vector<int>& app_order,
                        const std::unordered_map<int, int>& caps,
                        std::vector<int>& idle, bool one_per_app = false);

/// Picks the best slot for (app, unit) out of `idle` — preferring one whose
/// bitstream is already staged — and removes it from the list.
int take_slot(runtime::BoardRuntime& rt, int app_id, int unit,
              std::vector<int>& idle);

}  // namespace vs::baselines
