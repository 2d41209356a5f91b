// Fuzz harness: a policy that takes *random legal actions* each pass,
// driving the BoardRuntime through state-space corners no hand-written
// policy reaches, with the invariant auditor as the oracle. Any
// inconsistency (double-held slot, pipeline order violation, counter
// drift) fails the run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/benchmarks.h"
#include "apps/bundling.h"
#include "faults/scenario.h"
#include "fpga/board.h"
#include "runtime/board_runtime.h"
#include "runtime/invariants.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vs {
namespace {

/// Takes random legal actions: places random pending units into random
/// idle slots of the matching kind, randomly preempts idle-configured
/// units, occasionally re-bundles unstarted apps, and sometimes does
/// nothing at all (exercising stall/kick paths).
class ChaosPolicy final : public runtime::SchedulerPolicy {
 public:
  explicit ChaosPolicy(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] const char* name() const override { return "chaos"; }
  [[nodiscard]] bool dual_core() const override { return dual_; }
  void on_app_submitted(runtime::BoardRuntime&, int) override {
    dual_ = rng_.bernoulli(0.5);  // note: only read at construction time
  }

  void on_pass(runtime::BoardRuntime& rt) override {
    if (rng_.bernoulli(0.15)) {
      // Lazy pass: do nothing now, but guarantee a retry so laziness at
      // the final event cannot strand pending work.
      rt.sim().schedule(sim::ms(10.0), [&rt] { rt.kick(); });
      return;
    }

    // Occasionally re-bundle an unstarted app (only when Big slots exist
    // to place the bundles into).
    if (rng_.bernoulli(0.1) &&
        rt.board().count_slots(fpga::SlotKind::kBig) > 0) {
      for (int id : rt.live_ids()) {
        const runtime::AppRun& a = rt.app(id);
        if (a.started) continue;
        if (apps::can_bundle(*a.spec, rt.board().params())) {
          std::vector<apps::UnitSpec> bundles;
          apps::make_big_units(bundles, *a.spec, a.batch, rt.board().params());
          rt.set_units(a.id, bundles);
        }
        break;
      }
    }

    // Random placements in pipeline-prefix order (placing a unit whose
    // upstream was never placed would deadlock the app, which is a policy
    // bug, not a runtime one — chaos stays within the legal contract).
    std::vector<int> idle;
    for (int attempt = 0; attempt < 4; ++attempt) {
      std::vector<std::pair<int, int>> placeable;  // (app, lowest pending)
      for (int id : rt.live_ids()) {
        const runtime::AppRun& a = rt.app(id);
        for (const runtime::UnitRun& u : a.units) {
          if (u.state == runtime::UnitState::kPending) {
            placeable.emplace_back(a.id,
                                   static_cast<int>(&u - a.units.data()));
            break;  // only the lowest pending unit of each app
          }
        }
      }
      if (placeable.empty()) break;
      auto [app_id, unit] = placeable[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(placeable.size()) -
                                  1))];
      const runtime::UnitRun& u =
          rt.app(app_id).units[static_cast<std::size_t>(unit)];
      rt.idle_slots(u.spec.slot_kind, idle);
      if (idle.empty()) continue;
      int slot = idle[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(idle.size()) - 1))];
      if (!rt.board().slot(slot).capacity().fits(u.spec.impl_usage)) continue;
      rt.request_pr(app_id, unit, slot);
    }

    // Random relocation: preempt an idle-configured unit and immediately
    // re-place it into a random idle slot (exercises release/re-PR paths
    // without risking a stall).
    if (rng_.bernoulli(0.2)) {
      for (int id : rt.live_ids()) {
        const runtime::AppRun& a = rt.app(id);
        for (const runtime::UnitRun& u : a.units) {
          if (u.state == runtime::UnitState::kRunning && !u.item_in_flight &&
              u.items_done < a.batch && rng_.bernoulli(0.3)) {
            int unit_index = static_cast<int>(&u - a.units.data());
            rt.preempt_unit(a.id, unit_index);
            rt.idle_slots(u.spec.slot_kind, idle);
            ASSERT_FALSE(idle.empty());  // at least the freed slot
            int slot = idle[static_cast<std::size_t>(rng_.uniform_int(
                0, static_cast<std::int64_t>(idle.size()) - 1))];
            rt.request_pr(a.id, unit_index, slot);
            return;
          }
        }
      }
    }
  }

 private:
  util::Rng rng_;
  bool dual_ = true;
};

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, RandomActionsNeverBreakInvariants) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 8;
  util::Rng wl_rng(GetParam() * 31 + 7);
  auto seq = workload::generate_sequence(config, wl_rng);

  sim::Simulator sim;
  fpga::Board board(sim, "b0",
                    GetParam() % 2 ? fpga::FabricConfig::big_little()
                                   : fpga::FabricConfig::only_little(),
                    params);
  // Fault injection on top of chaos for a third of the seeds, configured
  // through the scenario's single seed-derivation rule.
  if (GetParam() % 3 == 0) {
    faults::FaultScenario scenario;
    scenario.seed = GetParam();
    scenario.pcap_crc_probability = 0.1;
    board.pcap().set_fault_model(scenario.pcap_crc_probability,
                                 scenario.stream("pcap/0"));
  }
  ChaosPolicy policy(GetParam());
  runtime::BoardRuntime rt(board, policy);
  for (const auto& a : seq) {
    sim.schedule_at(a.arrival, [&rt, &suite, a] {
      rt.submit(suite[static_cast<std::size_t>(a.spec_index)], a.spec_index,
                a.batch, a.arrival);
    });
  }
  int steps = 0;
  while (sim.step()) {
    if (++steps % 997 == 0) {
      auto report = runtime::audit(rt);
      ASSERT_TRUE(report.ok()) << "seed " << GetParam() << " step " << steps
                               << ": " << report.to_string();
    }
  }
  auto report = runtime::audit(rt);
  ASSERT_TRUE(report.ok()) << report.to_string();
  // Chaos places every pending unit eventually (it retries each pass), so
  // everything completes.
  EXPECT_EQ(rt.completed().size(), seq.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace vs
