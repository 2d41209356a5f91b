// Shared machinery for the slot-sharing comparison policies (FCFS,
// Round-Robin, Nimblock, DML): per-app optimal Little-slot allocations and
// in-order placement of pending pipeline units into free slots.
#pragma once

#include <vector>

#include "runtime/board_runtime.h"

namespace vs::baselines {

/// The app's ILP-optimal Little-slot count (the O^L of the papers) on this
/// board. Fixed for the app's life: policies compute it once, at admission.
[[nodiscard]] int optimal_little(const runtime::BoardRuntime& rt,
                                 const runtime::AppRun& app);

/// Grants idle Little slots to apps in the given order: app_order[i] may
/// place pending units (in pipeline order) until it reaches caps[i] placed
/// units or slots run out. `idle` is the caller's buffer: it is refilled
/// with the idle Little slots and left holding those not granted.
void grant_little_slots(runtime::BoardRuntime& rt,
                        const std::vector<int>& app_order,
                        const std::vector<int>& caps, std::vector<int>& idle);

}  // namespace vs::baselines
