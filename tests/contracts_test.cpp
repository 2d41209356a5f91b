// Contract (precondition) tests: the runtime enforces its API contracts
// with asserts, which this build keeps enabled. Each death test documents
// one contract a policy author must respect.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "fpga/board.h"
#include "runtime/board_runtime.h"
#include "runtime/invariants.h"
#include "sim/simulator.h"
#include "test_helpers.h"

namespace vs::runtime {
namespace {

using test::ScriptedPolicy;
using test::make_uniform_app;

using ContractsDeathTest = ::testing::Test;

TEST(ContractsDeathTest, PrIntoBusySlotAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  ScriptedPolicy policy;
  BoardRuntime rt(board, policy);
  auto app = make_uniform_app("a", 2, sim::ms(1));
  int id = rt.submit(app, 0, 1, 0);
  rt.request_pr(id, 0, 0);
  EXPECT_DEATH(rt.request_pr(id, 1, 0), "slot must be idle");
}

TEST(ContractsDeathTest, PrOfNonPendingUnitAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  ScriptedPolicy policy;
  BoardRuntime rt(board, policy);
  auto app = make_uniform_app("a", 1, sim::ms(1));
  int id = rt.submit(app, 0, 1, 0);
  rt.request_pr(id, 0, 0);
  EXPECT_DEATH(rt.request_pr(id, 0, 1), "unit must be pending");
}

TEST(ContractsDeathTest, WrongSlotKindAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::big_little());
  ScriptedPolicy policy;
  BoardRuntime rt(board, policy);
  auto app = make_uniform_app("a", 1, sim::ms(1));
  int id = rt.submit(app, 0, 1, 0);  // Little unit
  EXPECT_DEATH(rt.request_pr(id, 0, 0), "slot kind mismatch");  // B0 is Big
}

TEST(ContractsDeathTest, SubmitAfterStopAdmissionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  ScriptedPolicy policy;
  BoardRuntime rt(board, policy);
  rt.stop_admission();
  auto app = make_uniform_app("a", 1, sim::ms(1));
  EXPECT_DEATH(rt.submit(app, 0, 1, 0), "draining");
}

TEST(ContractsDeathTest, SetUnitsAfterStartAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  ScriptedPolicy policy;
  BoardRuntime rt(board, policy);
  auto app = make_uniform_app("a", 2, sim::ms(1));
  int id = rt.submit(app, 0, 1, 0);
  rt.request_pr(id, 0, 0);
  EXPECT_DEATH(rt.set_units(id, apps::make_little_units(app)),
               "cannot re-unitise");
}

TEST(ContractsDeathTest, PreemptMidItemAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::GreedyPolicy policy;
  BoardRuntime rt(board, policy);
  auto app = make_uniform_app("a", 1, sim::ms(50));
  int id = rt.submit(app, 0, 5, 0);
  // Run until the unit is mid-item.
  while (!rt.app(id).units[0].item_in_flight && sim.step()) {
  }
  ASSERT_TRUE(rt.app(id).units[0].item_in_flight);
  EXPECT_DEATH(rt.preempt_unit(id, 0), "item boundaries");
}

TEST(ContractsDeathTest, ProgressVectorSizeMismatchAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  ScriptedPolicy policy;
  BoardRuntime rt(board, policy);
  auto app = make_uniform_app("a", 3, sim::ms(1));
  EXPECT_DEATH(rt.submit_migrated(app, test::resumed_app(0, 4, 0, {1, 1}),
                                  AppPhase::kMigration),
               "cover every task");
}

TEST(ContractsDeathTest, NonMonotoneProgressAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  ScriptedPolicy policy;
  BoardRuntime rt(board, policy);
  auto app = make_uniform_app("a", 2, sim::ms(1));
  // Downstream ahead of upstream is impossible in a pipeline.
  EXPECT_DEATH(rt.submit_migrated(app, test::resumed_app(0, 4, 0, {1, 3}),
                                  AppPhase::kMigration),
               "monotone");
}

TEST(ContractsDeathTest, SlotExecWithoutConfigureAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  fpga::Slot slot(0, fpga::SlotKind::kLittle, {1, 1, 1, 1});
  EXPECT_DEATH(slot.begin_exec(), "");
}

// The unit and idle-slot masks are 32 and 64 bits wide. Wider inputs are
// rejected with an exception, before any state changes, not truncated.
TEST(Contracts, AppsPastTheUnitMaskWidthAreRejected) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  ScriptedPolicy policy;
  BoardRuntime rt(board, policy);
  const auto widest = make_uniform_app("widest", 32, sim::ms(1));
  const auto wider = make_uniform_app("wider", 33, sim::ms(1));
  const int id = rt.submit(widest, 0, 1, 0);
  EXPECT_EQ(rt.app(id).units_pending(), 32);
  EXPECT_EQ(rt.app(id).units_unfinished(), 32);
  EXPECT_EQ(rt.app(id).next_pending_unit(), 0);
  EXPECT_THROW((void)rt.submit(wider, 1, 1, 0), std::invalid_argument);
  std::vector<apps::UnitSpec> units(33, rt.app(id).units[0].spec);
  EXPECT_THROW(rt.set_units(id, units), std::invalid_argument);
  EXPECT_EQ(rt.admitted(), 1);  // the rejected submit took no id ...
  EXPECT_EQ(rt.app_slots(), 1U);  // ... and no app slot
  EXPECT_EQ(rt.app(id).units.size(), 32U);
  auto report = audit(rt);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Contracts, BoardsPastTheIdleMaskWidthAreRejected) {
  sim::Simulator sim;
  ScriptedPolicy policy;
  fpga::Board widest(sim, "widest", fpga::FabricConfig::custom(0, 64));
  BoardRuntime rt(widest, policy);
  EXPECT_EQ(rt.idle_mask(fpga::SlotKind::kLittle), ~std::uint64_t{0});
  EXPECT_EQ(rt.idle_mask(fpga::SlotKind::kBig), 0U);
  fpga::Board wider(sim, "wider", fpga::FabricConfig::custom(1, 64));
  EXPECT_THROW(BoardRuntime(wider, policy), std::invalid_argument);
}

}  // namespace
}  // namespace vs::runtime
