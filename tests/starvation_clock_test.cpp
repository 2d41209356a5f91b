// The runtime-kept starvation clock against the per-pass refresh it
// replaced.
//
// VersaSlot and Nimblock used to keep each app's starvation clock
// themselves: set at admission, then rewritten to the pass time at every
// pass for each app that held a slot or had nothing pending. They read it
// only for apps that hold no slot and have units pending. The runtime now
// keeps the clock instead, restarting it at the last pass whenever an app
// becomes slot-less. These tests keep the old refresh as a shadow beside a
// real policy and check, at the start of every pass, that each slot-less
// app reads the shadow's value from the runtime.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/benchmarks.h"
#include "fpga/board.h"
#include "metrics/experiment.h"
#include "runtime/board_runtime.h"
#include "runtime/policy.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace vs::runtime {
namespace {

/// Forwards every call to the wrapped policy and keeps the deleted
/// per-pass refresh as a shadow clock per app id.
class RefreshShadow final : public SchedulerPolicy {
 public:
  explicit RefreshShadow(std::unique_ptr<SchedulerPolicy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] bool dual_core() const override {
    return inner_->dual_core();
  }
  void attach(BoardRuntime& rt) override { inner_->attach(rt); }
  void on_app_submitted(BoardRuntime& rt, int app_id) override {
    const auto index = static_cast<std::size_t>(app_id);
    if (index >= shadow_.size()) shadow_.resize(index + 1, -1);
    shadow_[index] = rt.sim().now();
    inner_->on_app_submitted(rt, app_id);
  }
  void on_pass(BoardRuntime& rt) override {
    for (int id : rt.live_ids()) {
      const AppRun& a = rt.app(id);
      if (!waiting_without_slot(a)) continue;
      ++checked_;
      const sim::SimTime expected = shadow_[static_cast<std::size_t>(id)];
      if (expected != a.admitted) ++restarted_;
      if (a.wait_since != expected && mismatch_.empty()) {
        mismatch_ = "app " + std::to_string(id) + " at t=" +
                    std::to_string(rt.sim().now()) + ": runtime clock " +
                    std::to_string(a.wait_since) + ", refresh " +
                    std::to_string(expected);
      }
    }
    inner_->on_pass(rt);
    for (int id : rt.live_ids()) {
      if (!waiting_without_slot(rt.app(id))) {
        shadow_[static_cast<std::size_t>(id)] = rt.sim().now();
      }
    }
  }

  /// Slot-less checks made, and how many of them found a clock that had
  /// restarted since admission.
  [[nodiscard]] std::int64_t checked() const noexcept { return checked_; }
  [[nodiscard]] std::int64_t restarted() const noexcept { return restarted_; }
  /// The first disagreement, or empty.
  [[nodiscard]] const std::string& mismatch() const noexcept {
    return mismatch_;
  }

 private:
  /// The refresh's own test, spelled as the policies spelled it.
  static bool waiting_without_slot(const AppRun& a) {
    return a.units_placed() == 0 && a.units_pending() > 0;
  }

  std::unique_ptr<SchedulerPolicy> inner_;
  std::vector<sim::SimTime> shadow_;
  std::int64_t checked_ = 0;
  std::int64_t restarted_ = 0;
  std::string mismatch_;
};

struct ShadowRun {
  std::int64_t checked = 0;
  std::int64_t restarted = 0;
  std::int64_t completed = 0;
  std::string mismatch;
};

/// Runs `sequence` under `kind` with the shadow around its policy.
/// `before_run` may schedule more events against the runtime.
template <typename BeforeRun>
ShadowRun run_shadowed(metrics::SystemKind kind,
                       const workload::Sequence& sequence,
                       BeforeRun before_run) {
  fpga::BoardParams params;
  const auto suite = apps::make_suite(params);
  sim::Simulator sim;
  fpga::Board board(sim, "fpga0", metrics::fabric_for(kind), params);
  RefreshShadow policy(metrics::make_policy(kind));
  BoardRuntime rt(board, policy);
  for (const apps::AppArrival& a : sequence) {
    sim.schedule_at(a.arrival, [&rt, &suite, a] {
      rt.submit(suite.at(static_cast<std::size_t>(a.spec_index)),
                a.spec_index, a.batch, a.arrival, a.item_interval);
    });
  }
  before_run(sim, rt);
  sim.run();
  return {policy.checked(), policy.restarted(),
          static_cast<std::int64_t>(rt.completed().size()),
          policy.mismatch()};
}

TEST(StarvationClock, MatchesPerPassRefresh) {
  std::int64_t checked = 0;
  std::int64_t restarted = 0;
  for (metrics::SystemKind kind :
       {metrics::SystemKind::kVersaOnlyLittle,
        metrics::SystemKind::kVersaBigLittle,
        metrics::SystemKind::kNimblock}) {
    for (workload::Congestion congestion :
         {workload::Congestion::kStandard, workload::Congestion::kStress}) {
      for (std::uint64_t seed : {2025u, 7u}) {
        SCOPED_TRACE(std::string(metrics::system_name(kind)) + " " +
                     workload::congestion_name(congestion) + " seed " +
                     std::to_string(seed));
        workload::WorkloadConfig config;
        config.congestion = congestion;
        config.apps_per_sequence = 20;
        const auto sequence =
            workload::generate_sequences(config, 1, seed)[0];
        const ShadowRun r =
            run_shadowed(kind, sequence, [](sim::Simulator&, BoardRuntime&) {});
        EXPECT_EQ(r.completed, 20);
        EXPECT_TRUE(r.mismatch.empty()) << r.mismatch;
        checked += r.checked;
        restarted += r.restarted;
      }
    }
  }
  // The runs read clocks at admission value and clocks restarted since.
  EXPECT_GT(checked, restarted);
  EXPECT_GT(restarted, 0);

  // One run with SEUs: every 37 ms one hits the lowest slot mid-PR, if
  // any. When the loading unit is its app's only placed unit, the
  // discarded load leaves the app slot-less with that unit pending again.
  SCOPED_TRACE("VersaSlot-OL Stress seed 2025 with SEUs");
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 20;
  const auto sequence = workload::generate_sequences(config, 1, 2025)[0];
  int emptying = 0;
  const ShadowRun r = run_shadowed(
      metrics::SystemKind::kVersaOnlyLittle, sequence,
      [&emptying, &sequence](sim::Simulator& sim, BoardRuntime& rt) {
        const sim::SimTime end = sequence.back().arrival + sim::seconds(5.0);
        for (sim::SimTime t = sim::ms(37.0); t < end; t += sim::ms(37.0)) {
          sim.schedule_at(t, [&rt, &emptying] {
            for (const fpga::Slot& s : rt.board().slots()) {
              if (s.state() != fpga::SlotState::kReconfiguring) continue;
              if (rt.app(s.occupant_app()).units_placed() == 1) ++emptying;
              rt.inject_slot_seu(s.id());
              return;
            }
          });
        }
      });
  EXPECT_EQ(r.completed, 20);
  EXPECT_GT(emptying, 0);
  EXPECT_TRUE(r.mismatch.empty()) << r.mismatch;
}

}  // namespace
}  // namespace vs::runtime
