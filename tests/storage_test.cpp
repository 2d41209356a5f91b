// Tests for placement-specific bitstream storage: relocation, the DDR
// residency cache, and cache-aware slot selection in the runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fpga/board.h"
#include "fpga/storage.h"
#include "runtime/board_runtime.h"
#include "sim/simulator.h"
#include "test_helpers.h"

namespace vs {
namespace {

TEST(Relocation, SecondSlotVariantRelocatesInsteadOfRereading) {
  fpga::BoardParams params;
  fpga::SdCard sd(params);
  const fpga::BitstreamKey content = 0xAA00;
  sim::SimDuration first = sd.fetch_time(/*key=*/1, content, 12'000'000);
  EXPECT_EQ(first, params.sd_read_time(12'000'000));
  sim::SimDuration second = sd.fetch_time(/*key=*/2, content, 12'000'000);
  EXPECT_EQ(second, params.reloc_time(12'000'000));
  EXPECT_LT(second, first);
  EXPECT_EQ(sd.misses(), 1);
  EXPECT_EQ(sd.relocations(), 1);
  // Exact repeat: free.
  EXPECT_EQ(sd.fetch_time(/*key=*/2, content, 12'000'000), 0);
}

TEST(Relocation, DifferentContentAlwaysReadsSd) {
  fpga::BoardParams params;
  fpga::SdCard sd(params);
  (void)sd.fetch_time(1, 0xA, 1'000'000);
  sim::SimDuration t = sd.fetch_time(2, 0xB, 1'000'000);
  EXPECT_EQ(t, params.sd_read_time(1'000'000));
  EXPECT_EQ(sd.misses(), 2);
  EXPECT_EQ(sd.relocations(), 0);
}

TEST(Relocation, DropCacheKeepsContentSoAVariantRelocates) {
  // drop_cache() empties the placement-specific cache only: the content is
  // still resident, so re-staging any variant of it is a relocation.
  fpga::BoardParams params;
  fpga::SdCard sd(params);
  (void)sd.fetch_time(1, 0xA, 1'000'000);
  sd.drop_cache();
  EXPECT_FALSE(sd.cached(1));
  EXPECT_EQ(sd.fetch_time(1, 0xA, 1'000'000), params.reloc_time(1'000'000));
  EXPECT_EQ(sd.fetch_time(3, 0xA, 1'000'000), params.reloc_time(1'000'000));
  EXPECT_EQ(sd.misses(), 1);
  EXPECT_EQ(sd.relocations(), 2);
}

TEST(SdCache, RepeatedInsertsAreOneEntryInAnyOrder) {
  fpga::BoardParams params;
  fpga::SdCard sd(params);
  sd.prewarm(5);
  sd.prewarm(5);
  EXPECT_EQ(sd.cached_count(), 1u);
  EXPECT_EQ(sd.fetch_time(5, 1000), 0);
  EXPECT_EQ(sd.cached_count(), 1u);
  // Keys arrive in no particular order, many of them twice.
  std::vector<fpga::BitstreamKey> keys;
  for (std::uint64_t i = 0; i < 300; ++i) {
    keys.push_back((i * 0x9E3779B97F4A7C15ULL) >> 40);
  }
  for (fpga::BitstreamKey k : keys) sd.prewarm(k);
  for (fpga::BitstreamKey k : keys) sd.prewarm(k);
  std::vector<fpga::BitstreamKey> distinct = keys;
  distinct.push_back(5);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_EQ(sd.cached_count(), distinct.size());
  for (fpga::BitstreamKey k : distinct) EXPECT_TRUE(sd.cached(k)) << k;
  EXPECT_FALSE(sd.cached(distinct.back() + 1));
  EXPECT_EQ(sd.misses(), 0);
  sd.drop_cache();
  EXPECT_EQ(sd.cached_count(), 0u);
  EXPECT_FALSE(sd.cached(5));
}

TEST(SdCache, AsyncFetchAfterDropCacheReadsAgain) {
  // A read's cost is charged as the delay of the event that consumes the
  // bitstream, as BoardRuntime charges it to the PCAP load.
  sim::Simulator sim;
  fpga::BoardParams params;
  fpga::SdCard sd(params);
  std::vector<sim::SimTime> ready;
  auto fetch = [&] {
    sim.schedule(sd.fetch_time(9, 4'000'000),
                 [&] { ready.push_back(sim.now()); });
  };
  fetch();
  sim.run();
  fetch();  // cached
  sd.drop_cache();
  const sim::SimTime dropped = sim.now();
  fetch();
  sim.run();
  const sim::SimDuration read = params.sd_read_time(4'000'000);
  EXPECT_EQ(ready, (std::vector<sim::SimTime>{read, read, dropped + read}));
  EXPECT_EQ(sd.misses(), 2);
  EXPECT_TRUE(sd.cached(9));
}

TEST(ChooseSlot, PrefersCachedPlacement) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::ScriptedPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  auto app = test::make_uniform_app("a", 1, sim::ms(1));
  int id = rt.submit(app, 0, 1, 0);
  // Warm the bitstream for slot 5 only.
  board.sdcard().prewarm(
      runtime::unit_bitstream_key(0, rt.app(id).units[0].spec, 5));
  std::vector<int> idle{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(rt.take_slot(id, 0, idle), 5);
  EXPECT_EQ(idle, (std::vector<int>{0, 1, 2, 3, 4, 6, 7}));
}

TEST(ChooseSlot, FallsBackToFirstCandidate) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::ScriptedPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  auto app = test::make_uniform_app("a", 1, sim::ms(1));
  int id = rt.submit(app, 0, 1, 0);
  std::vector<int> idle{3, 6};
  EXPECT_EQ(rt.take_slot(id, 0, idle), 3);
  EXPECT_EQ(idle, (std::vector<int>{6}));
}

TEST(ChooseSlot, SecondInstanceReusesWarmSlot) {
  // Run one app to completion, then submit the same spec again: its PRs
  // should land on the already-warm slots (no new SD misses).
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::GreedyPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  auto app = test::make_uniform_app("a", 3, sim::ms(2));
  rt.submit(app, 0, 2, 0);
  sim.run();
  std::int64_t misses_after_first = board.sdcard().misses();
  rt.submit(app, 0, 2, sim.now());
  sim.run();
  EXPECT_EQ(board.sdcard().misses(), misses_after_first);
}

TEST(Relocation, RuntimeUsesRelocationAcrossSlots) {
  // Force the same unit content into two different slots: the second PR
  // must relocate rather than re-read.
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::ScriptedPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  auto app = test::make_uniform_app("a", 1, sim::ms(1));
  int a0 = rt.submit(app, 0, 1, 0);
  int a1 = rt.submit(app, 0, 1, 0);
  rt.request_pr(a0, 0, 2);
  rt.request_pr(a1, 0, 6);  // same content, different slot
  sim.run();
  EXPECT_EQ(board.sdcard().misses(), 1);
  EXPECT_EQ(board.sdcard().relocations(), 1);
}

}  // namespace
}  // namespace vs
