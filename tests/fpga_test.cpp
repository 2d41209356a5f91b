// Unit tests for the FPGA board substrate: resource vectors, slots, PCAP
// serialisation and CPU suspension, SD-card caching, OCM and fabric
// configurations.
#include <gtest/gtest.h>

#include "fpga/board.h"
#include "fpga/fabric.h"
#include "fpga/pcap.h"
#include "fpga/resources.h"
#include "fpga/slot.h"
#include "fpga/storage.h"
#include "sim/simulator.h"

namespace vs::fpga {
namespace {

// ---------------------------------------------------------- ResourceVector

TEST(ResourceVector, Arithmetic) {
  ResourceVector a{100, 200, 10, 20};
  ResourceVector b{50, 100, 5, 10};
  a += b;
  EXPECT_EQ(a, (ResourceVector{150, 300, 15, 30}));
  a -= b;
  EXPECT_EQ(a, (ResourceVector{100, 200, 10, 20}));
  // Counts are signed: a component may go negative.
  ResourceVector c{5, 5, 5, 5};
  c -= ResourceVector{10, 0, 0, 0};
  EXPECT_EQ(c, (ResourceVector{-5, 5, 5, 5}));
}

TEST(ResourceVector, Fits) {
  ResourceVector cap{100, 200, 10, 20};
  EXPECT_TRUE(cap.fits({100, 200, 10, 20}));
  EXPECT_TRUE(cap.fits({0, 0, 0, 0}));
  EXPECT_FALSE(cap.fits({101, 0, 0, 0}));
  EXPECT_FALSE(cap.fits({0, 0, 11, 0}));
}

TEST(ResourceVector, Scaled) {
  ResourceVector a{100, 200, 10, 20};
  ResourceVector half = a.scaled(0.5);
  EXPECT_EQ(half, (ResourceVector{50, 100, 5, 10}));
}

// ---------------------------------------------------------------- SlotKind

TEST(Slot, LifecycleTransitions) {
  Slot s(0, SlotKind::kLittle, {100, 100, 10, 10});
  EXPECT_EQ(s.state(), SlotState::kIdle);
  s.begin_reconfig(/*app=*/3);
  EXPECT_EQ(s.state(), SlotState::kReconfiguring);
  EXPECT_EQ(s.occupant_app(), 3);
  s.finish_reconfig();
  EXPECT_EQ(s.state(), SlotState::kConfigured);
  s.begin_exec();
  EXPECT_EQ(s.state(), SlotState::kExecuting);
  s.finish_exec();
  EXPECT_EQ(s.state(), SlotState::kConfigured);
  s.release();
  EXPECT_EQ(s.state(), SlotState::kIdle);
  EXPECT_EQ(s.occupant_app(), -1);
}

TEST(Slot, ReconfigDirectlyFromConfigured) {
  Slot s(1, SlotKind::kBig, {200, 200, 20, 20});
  s.begin_reconfig(1);
  s.finish_reconfig();
  // A new PR may replace configured logic without an explicit release.
  s.begin_reconfig(2);
  EXPECT_EQ(s.occupant_app(), 2);
}

TEST(Slot, Names) {
  Slot little(5, SlotKind::kLittle, {});
  Slot big(0, SlotKind::kBig, {});
  EXPECT_EQ(little.name(), "L5");
  EXPECT_EQ(big.name(), "B0");
  EXPECT_STREQ(to_string(SlotKind::kBig), "Big");
  EXPECT_STREQ(to_string(SlotState::kExecuting), "executing");
}

// -------------------------------------------------------------------- Pcap

TEST(Pcap, SerializesLoads) {
  sim::Simulator sim;
  sim::Core core(sim, "ps0");
  Pcap pcap(sim);
  std::vector<std::pair<int, sim::SimTime>> done;
  pcap.request(sim::ms(10), core, [&] { done.emplace_back(1, sim.now()); });
  pcap.request(sim::ms(10), core, [&] { done.emplace_back(2, sim.now()); });
  EXPECT_TRUE(pcap.busy());
  EXPECT_EQ(pcap.backlog(), 1u);
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].second, sim::ms(10));
  EXPECT_EQ(done[1].second, sim::ms(20));
  EXPECT_EQ(pcap.stats().loads_completed, 2);
  EXPECT_EQ(pcap.stats().loads_queued_behind_another, 1);
}

TEST(Pcap, OnBlockedFiresOnlyForQueuedRequests) {
  sim::Simulator sim;
  sim::Core core(sim, "ps0");
  Pcap pcap(sim);
  int blocked = 0;
  pcap.request(sim::ms(5), core, [] {}, [&] { ++blocked; });
  pcap.request(sim::ms(5), core, [] {}, [&] { ++blocked; });
  sim.run();
  EXPECT_EQ(blocked, 1);
}

TEST(Pcap, SuspendsIssuingCore) {
  sim::Simulator sim;
  sim::Core core(sim, "ps0");
  Pcap pcap(sim);
  pcap.request(sim::ms(10), core, [] {});
  // Work submitted to the core after the PR waits for the load to finish.
  sim::SimTime op_done = -1;
  core.submit(sim::us(1), [&] { op_done = sim.now(); });
  sim.run();
  EXPECT_EQ(op_done, sim::ms(10) + sim::us(1));
}

TEST(Pcap, TracksWaitTime) {
  sim::Simulator sim;
  sim::Core core(sim, "ps0");
  Pcap pcap(sim);
  pcap.request(sim::ms(10), core, [] {});
  pcap.request(sim::ms(10), core, [] {});
  sim.run();
  EXPECT_EQ(pcap.stats().total_wait, sim::ms(10));
  EXPECT_EQ(pcap.stats().total_load, sim::ms(20));
}

TEST(Pcap, DifferentCoresStillSerialized) {
  sim::Simulator sim;
  sim::Core c0(sim, "ps0"), c1(sim, "ps1");
  Pcap pcap(sim);
  sim::SimTime first = -1, second = -1;
  pcap.request(sim::ms(10), c0, [&] { first = sim.now(); });
  pcap.request(sim::ms(10), c1, [&] { second = sim.now(); });
  sim.run();
  EXPECT_EQ(first, sim::ms(10));
  EXPECT_EQ(second, sim::ms(20));  // PCAP is one device
}

// ------------------------------------------------------------------ SdCard

TEST(SdCard, CachesAfterFirstFetch) {
  BoardParams params;
  SdCard sd(params);
  sim::SimDuration first = sd.fetch_time(1, 12'000'000);
  EXPECT_GT(first, 0);
  EXPECT_EQ(sd.fetch_time(1, 12'000'000), 0);
  EXPECT_EQ(sd.misses(), 1);
  EXPECT_TRUE(sd.cached(1));
  EXPECT_FALSE(sd.cached(2));
}

TEST(SdCard, PrewarmAvoidsReadTime) {
  BoardParams params;
  SdCard sd(params);
  sd.prewarm(7);
  EXPECT_EQ(sd.fetch_time(7, 12'000'000), 0);
  EXPECT_EQ(sd.misses(), 0);
}

TEST(SdCard, DropCacheForcesRefetch) {
  BoardParams params;
  SdCard sd(params);
  (void)sd.fetch_time(1, 1000);
  sd.drop_cache();
  EXPECT_GT(sd.fetch_time(1, 1000), 0);
  EXPECT_EQ(sd.misses(), 2);
}

TEST(SdCard, ReadTimeScalesWithBytes) {
  BoardParams params;
  SdCard sd(params);
  sim::SimDuration small = sd.fetch_time(1, 1'000'000);
  sim::SimDuration large = sd.fetch_time(2, 10'000'000);
  EXPECT_GT(large, small);
}

// --------------------------------------------------------------------- Ocm

TEST(Ocm, DeliversAfterLatency) {
  sim::Simulator sim;
  BoardParams params;
  Ocm ocm(sim, params);
  sim::SimTime delivered = -1;
  ocm.post([&] { delivered = sim.now(); });
  sim.run();
  EXPECT_EQ(delivered, params.ocm_message_latency);
  EXPECT_EQ(ocm.messages(), 1);
}

// ------------------------------------------------------------------ Fabric

TEST(Fabric, BigLittleLayout) {
  FabricConfig config = FabricConfig::big_little();
  EXPECT_EQ(config.big_slots, 2);
  EXPECT_EQ(config.little_slots, 4);
  EXPECT_EQ(config.total_slots(), 6);
  EXPECT_EQ(config.name(), "Big.Little");
}

TEST(Fabric, OnlyLittleLayout) {
  FabricConfig config = FabricConfig::only_little();
  EXPECT_EQ(config.big_slots, 0);
  EXPECT_EQ(config.little_slots, 8);
  EXPECT_EQ(config.name(), "Only.Little");
}

TEST(Fabric, CustomLayout) {
  FabricConfig config = FabricConfig::custom(3, 2);
  EXPECT_EQ(config.total_slots(), 5);
  EXPECT_EQ(config.kind, FabricKind::kCustom);
}

TEST(Fabric, MakeSlotsNumbersAndKinds) {
  BoardParams params;
  auto slots = make_slots(FabricConfig::big_little(), params);
  ASSERT_EQ(slots.size(), 6u);
  EXPECT_EQ(slots[0].kind(), SlotKind::kBig);
  EXPECT_EQ(slots[1].kind(), SlotKind::kBig);
  EXPECT_EQ(slots[2].kind(), SlotKind::kLittle);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i].id(), static_cast<int>(i));
  }
  EXPECT_EQ(slots[0].capacity(), params.big_slot);
  EXPECT_EQ(slots[5].capacity(), params.little_slot);
}

TEST(Fabric, CapacityEquivalence) {
  // The paper's two layouts cover the same reconfigurable area:
  // 2 Big (2x Little each) + 4 Little == 8 Little.
  BoardParams params;
  ResourceVector bl =
      reconfigurable_capacity(FabricConfig::big_little(), params);
  ResourceVector ol =
      reconfigurable_capacity(FabricConfig::only_little(), params);
  EXPECT_EQ(bl, ol);
}

// ------------------------------------------------------------------- Board

TEST(Board, ConstructionAndAccessors) {
  sim::Simulator sim;
  Board board(sim, "fpga0", FabricConfig::big_little());
  EXPECT_EQ(board.name(), "fpga0");
  EXPECT_EQ(board.slots().size(), 6u);
  EXPECT_EQ(board.count_slots(SlotKind::kBig), 2);
  EXPECT_EQ(board.count_slots(SlotKind::kLittle), 4);
  EXPECT_EQ(board.scheduler_core().name(), "fpga0.PS0");
  EXPECT_EQ(board.pr_core().name(), "fpga0.PS1");
}

TEST(Board, ReconfigureFabricRebuildsSlots) {
  sim::Simulator sim;
  Board board(sim, "fpga0", FabricConfig::only_little());
  EXPECT_EQ(board.count_slots(SlotKind::kLittle), 8);
  board.reconfigure_fabric(FabricConfig::big_little());
  EXPECT_EQ(board.count_slots(SlotKind::kBig), 2);
  EXPECT_EQ(board.count_slots(SlotKind::kLittle), 4);
}

TEST(Board, PcapLoadTimeMatchesParams) {
  BoardParams params;
  sim::SimDuration t = params.pcap_load_time(params.little_bitstream_bytes);
  // 12 MB at 128 MB/s ≈ 93.75 ms plus 1 ms fixed overhead.
  EXPECT_NEAR(sim::to_ms(t), 94.75, 0.5);
  // Big slots carry twice the bitstream.
  EXPECT_GT(params.pcap_load_time(params.big_bitstream_bytes),
            2 * t - params.pcap_fixed_overhead - sim::ms(1));
}

}  // namespace
}  // namespace vs::fpga
