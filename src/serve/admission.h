// Fair-share admission control for the serving plane.
//
// Every arrival passes through here before it may touch a board. The
// controller enforces three limits — the cluster-wide admitted-jobs cap
// (ServeConfig::max_inflight), each tenant's outstanding-work quota, and
// each tenant's deferred-queue depth — and shares freed capacity out with
// a weighted deficit round-robin: each drain round tops every waiting
// tenant's deficit up by its weight, and the tenant with the largest
// deficit admits the head of its FIFO queue. Queues are SLO-aware: among
// waiting tenants, the lowest SLO-class priority value always drains
// first; the deficit only arbitrates within a priority level. All state
// changes happen inside simulation events, so admission decisions are a
// pure function of the arrival trace.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "serve/arrival.h"
#include "serve/tenant.h"

namespace vs::serve {

class AdmissionController {
 public:
  /// What happened to an arrival at the admission edge. Deferred arrivals
  /// are admitted later (in on_complete) when capacity frees up.
  enum class Action { kAdmit, kDefer, kReject };

  /// Per-tenant admission bookkeeping, available without telemetry.
  struct TenantState {
    int outstanding = 0;  ///< admitted, not yet completed
    std::int64_t submitted = 0;
    std::int64_t admitted = 0;
    std::int64_t deferred = 0;  ///< arrivals that entered the queue
    std::int64_t rejected = 0;
    double deficit = 0.0;
    std::deque<ServeArrival> queue;
  };

  explicit AdmissionController(const ServeConfig& config);

  /// Dispatch sink for admitted jobs; must be set before the first arrival.
  void set_dispatch(std::function<void(const ServeArrival&)> fn) {
    dispatch_ = std::move(fn);
  }

  /// Admission edge: admit now if the tenant is under quota, its queue is
  /// empty, and the cluster cap has room; otherwise defer (queue) or, with
  /// the queue full, reject.
  Action on_arrival(const ServeArrival& a);

  /// Completion edge: releases the tenant's slot and pumps deferred work.
  void on_complete(int tenant);

  [[nodiscard]] const std::vector<TenantState>& tenants() const noexcept {
    return tenants_;
  }
  [[nodiscard]] std::int64_t queued() const {
    std::int64_t n = 0;
    for (const TenantState& t : tenants_) {
      n += static_cast<std::int64_t>(t.queue.size());
    }
    return n;
  }

 private:
  /// True when tenant `i` may admit the head of its queue right now.
  [[nodiscard]] bool eligible(std::size_t i) const;
  /// Admits queued work while capacity lasts (the WDRR loop).
  void pump();

  const ServeConfig& config_;
  std::vector<TenantState> tenants_;
  std::function<void(const ServeArrival&)> dispatch_;
  int inflight_ = 0;
};

}  // namespace vs::serve
