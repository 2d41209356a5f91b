// Scheduler policy interface.
//
// A policy is the decision logic the paper compares: Baseline, FCFS,
// Round-Robin, Nimblock, VersaSlot Only.Little and VersaSlot Big.Little.
// The BoardRuntime owns all mechanism (PCAP, cores, slots, pipelines,
// accounting); a policy only decides *which unit goes into which slot when*
// and whether to preempt. Policy code runs inside scheduler passes, which
// execute as operations on the board's scheduler core — so a policy's
// decisions are automatically delayed when that core is suspended by a PR
// (the single-core blocking problem), unless the policy declares itself
// dual-core.
#pragma once

#include <string>

namespace vs::obs {
class MetricsRegistry;
}  // namespace vs::obs

namespace vs::runtime {

class BoardRuntime;

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// True when PR loads are issued from the dedicated PR-server core
  /// (core 1) instead of the scheduler core — the paper's dual-core design.
  [[nodiscard]] virtual bool dual_core() const { return false; }

  /// Called once when the runtime is constructed.
  virtual void attach(BoardRuntime&) {}

  /// Registers the policy's own instruments (decision counters) when the
  /// run carries telemetry, labelled by the owning board so same-policy
  /// epochs on different boards resolve distinct cells. Policies without
  /// instruments ignore it.
  virtual void bind_metrics(obs::MetricsRegistry&,
                            const std::string& /*board*/) {}

  /// Called (outside any core op) when an app is admitted, so the policy
  /// can register it in its own queues. A pass is always kicked afterwards.
  virtual void on_app_submitted(BoardRuntime&, int app_id) = 0;

  /// One scheduling pass: inspect runtime state, issue PR/preempt commands.
  /// Ready-item launches are performed by the runtime after this returns.
  virtual void on_pass(BoardRuntime&) = 0;
};

}  // namespace vs::runtime
