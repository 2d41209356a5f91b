// Ordered parallel export: write_ordered hands the stream exactly the bytes
// of one serial format call, at any worker count and across chunk
// boundaries, and stops every worker before an error reaches the caller.
// The three exporters routed through it (Chrome trace, run journal, metrics
// series) write the same bytes at 1, 2 and 4 workers.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "obs/block_writer.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace_hub.h"

namespace vs::obs {
namespace {

/// Sets VS_JOBS, the worker count write_ordered resolves, for its scope.
class ScopedJobs {
 public:
  explicit ScopedJobs(int jobs) {
    if (const char* v = std::getenv("VS_JOBS")) previous_ = v;
    ::setenv("VS_JOBS", std::to_string(jobs).c_str(), 1);
  }
  ~ScopedJobs() {
    if (previous_.empty()) {
      ::unsetenv("VS_JOBS");
    } else {
      ::setenv("VS_JOBS", previous_.c_str(), 1);
    }
  }
  ScopedJobs(const ScopedJobs&) = delete;
  ScopedJobs& operator=(const ScopedJobs&) = delete;

 private:
  std::string previous_;
};

/// Threads of this process, one entry each under /proc/self/task. A
/// joined thread's entry can outlive the join by a moment, so this waits
/// up to a second for the count to fall to `at_most`.
std::size_t thread_count(
    std::size_t at_most = std::numeric_limits<std::size_t>::max()) {
  std::size_t n = 0;
  for (int tries = 0; tries < 200; ++tries) {
    n = 0;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)task;
      ++n;
    }
    if (n <= at_most) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return n;
}

/// Runs `write` into a string at 1, 2 and 4 workers, expects the three to
/// be equal, and returns them.
template <typename Write>
std::string same_bytes_at_1_2_4_workers(Write write) {
  std::string serial;
  for (int jobs : {1, 2, 4}) {
    ScopedJobs scoped(jobs);
    std::ostringstream out;
    write(out);
    if (jobs == 1) {
      serial = out.str();
    } else {
      EXPECT_EQ(out.str(), serial) << jobs << " workers";
    }
  }
  return serial;
}

/// A label that needs JSON escapes: quotes, a backslash, a newline and a
/// control character.
constexpr const char* kHostile = "edge \"q\" \\ \n\x01";
constexpr const char* kHostileJson = "edge \\\"q\\\" \\\\ \\n\\u0001";

// ------------------------------------------------------------ the writer

TEST(OrderedExport, ChunksReachTheStreamInChunkOrder) {
  // Records of very different sizes, some larger than a 64 KiB block, so
  // chunk buffers grow; every count and chunk size gives the serial bytes.
  auto record = [](std::size_t i, BlockWriter& w) {
    w.raw("r").num(i);
    if (i % 97 == 5) w.raw(std::string(100'000 + i, 'x'));
    w.escaped(i % 3 == 0 ? kHostile : "plain").raw("\n");
  };
  for (std::size_t per_chunk : {1u, 8u, 64u}) {
    for (std::size_t count : {0u, 1u, 7u, 8u, 9u, 300u}) {
      std::ostringstream expected;
      {
        BlockWriter w(expected);
        w.raw("head\n");
        for (std::size_t i = 0; i < count; ++i) record(i, w);
        w.raw("tail\n");
      }
      const std::string bytes = same_bytes_at_1_2_4_workers(
          [&](std::ostream& out) {
            BlockWriter w(out);
            w.raw("head\n");
            write_ordered(w, count, per_chunk,
                          [&](std::size_t begin, std::size_t end,
                              BlockWriter& cw) {
                            for (std::size_t i = begin; i < end; ++i) {
                              record(i, cw);
                            }
                          });
            w.raw("tail\n");
          });
      EXPECT_EQ(bytes, expected.str())
          << count << " records, " << per_chunk << " per chunk";
    }
  }
}

TEST(OrderedExport, FormatErrorReachesTheCallerAfterEveryWorkerStopped) {
  const std::size_t before = thread_count();
  ScopedJobs scoped(4);
  std::ostringstream out;
  BlockWriter w(out);
  std::atomic<int> formatting{0};
  std::atomic<int> calls{0};
  try {
    write_ordered(w, 1000, 10,
                  [&](std::size_t begin, std::size_t end, BlockWriter& cw) {
                    ++calls;
                    ++formatting;
                    struct Leave {
                      std::atomic<int>& n;
                      ~Leave() { --n; }
                    } leave{formatting};
                    for (std::size_t i = begin; i < end; ++i) {
                      if (i == 537) throw std::logic_error("record 537");
                      cw.num(i).raw("\n");
                    }
                  });
    ADD_FAILURE() << "write_ordered returned normally";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "record 537");
  }
  // No format call is running or starts once the error is out.
  EXPECT_EQ(formatting.load(), 0);
  const int calls_at_return = calls.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(calls.load(), calls_at_return);
  EXPECT_LE(thread_count(before), before);
  // Only whole chunks before the failing one can have reached the stream.
  EXPECT_EQ(out.str().find("537"), std::string::npos);
}

// --------------------------------------------------------- the exporters

/// A hub holding `spans` spans on one board and `flows` flow points on two
/// channels, spans first in start order. `hostile_at` (an index into the
/// trace's spans-then-flows order) gets a label that needs escapes.
void fill_trace(ClusterTraceHub& hub, std::size_t spans, std::size_t flows,
                std::size_t hostile_at) {
  hub.enable_trace();
  TraceChannel& board = hub.channel("fpga-0");
  TraceChannel& cluster = hub.channel("cluster");
  const NameId lanes[] = {board.lane("slot L0"), board.lane("slot B1"),
                          board.lane("core")};
  for (std::size_t i = 0; i < spans; ++i) {
    const auto start = static_cast<sim::SimTime>(1000 * i + 7);
    board.span(start, start + 1500 + static_cast<sim::SimTime>(i % 4) * 333,
               lanes[i % 3], static_cast<SpanKind>(i % 5),
               i == hostile_at ? kHostile : "App", '#', i);
  }
  for (std::size_t i = 0; i < flows; ++i) {
    TraceChannel& ch = i % 2 == 0 ? board : cluster;
    const auto t = static_cast<sim::SimTime>(500 * i);
    ch.flow(ch.new_flow_id(), static_cast<FlowPhase>(i % 3), t,
            i % 2 == 0 ? "fpga-0" : "cluster", i % 4 < 2 ? "mig" : "rec",
            spans + i == hostile_at ? kHostile : "hop ", i);
  }
}

TEST(OrderedExport, TraceBytesMatchAtEveryWorkerCountAroundAChunk) {
  constexpr std::size_t kChunk = ClusterTraceHub::kTraceChunk;
  for (std::size_t records : {std::size_t{0}, std::size_t{1}, kChunk,
                              kChunk + 1}) {
    ClusterTraceHub hub;
    const std::size_t flows = records / 3;
    fill_trace(hub, records - flows, flows, records);
    const std::string bytes = same_bytes_at_1_2_4_workers(
        [&](std::ostream& out) { hub.write_chrome_trace(out); });
    EXPECT_EQ(bytes.substr(bytes.size() - 3), "\n]\n") << records;
  }
}

TEST(OrderedExport, EscapedLabelOnAChunkBoundaryKeepsItsBytes) {
  // The last span of the first chunk and the first of the second both need
  // escapes; so does a flow name in the second chunk.
  constexpr std::size_t kChunk = ClusterTraceHub::kTraceChunk;
  for (std::size_t hostile : {kChunk - 1, kChunk}) {
    ClusterTraceHub hub;
    fill_trace(hub, kChunk + 1, 4, hostile);
    const std::string bytes = same_bytes_at_1_2_4_workers(
        [&](std::ostream& out) { hub.write_chrome_trace(out); });
    EXPECT_NE(bytes.find(std::string("{\"name\":\"") + kHostileJson + "#" +
                         std::to_string(hostile) + "\""),
              std::string::npos)
        << hostile;
  }
  ClusterTraceHub hub;
  fill_trace(hub, kChunk - 2, 8, kChunk + 1);
  const std::string bytes = same_bytes_at_1_2_4_workers(
      [&](std::ostream& out) { hub.write_chrome_trace(out); });
  EXPECT_NE(bytes.find(std::string("{\"name\":\"") + kHostileJson + "3\""),
            std::string::npos);
}

TEST(OrderedExport, JournalBytesMatchAtEveryWorkerCountAroundAChunk) {
  constexpr std::size_t kChunk = ClusterTraceHub::kJournalChunk;
  for (std::size_t records : {std::size_t{0}, std::size_t{1}, kChunk,
                              kChunk + 1}) {
    ClusterTraceHub hub;
    hub.enable_journal();
    TraceChannel& board = hub.channel("fpga-0");
    TraceChannel& cluster = hub.channel("cluster");
    for (std::size_t i = 0; i < records; ++i) {
      TraceChannel& ch = i % 3 == 0 ? cluster : board;
      const auto event = static_cast<JournalEvent>(i % 10);
      ch.journal(static_cast<sim::SimTime>(250 * (i / 2)), event,
                 i % 3 == 0 ? "cluster" : "fpga-0",
                 i % 4 == 0 ? -1 : static_cast<int>(i),
                 i % 5 == 0 ? "" : "LeNet", i % 7,
                 i + 1 == kChunk ? kHostile : "detail ", i);
    }
    const std::string bytes = same_bytes_at_1_2_4_workers(
        [&](std::ostream& out) { hub.write_journal(out); });
    std::size_t lines = 0;
    for (char c : bytes) lines += c == '\n';
    EXPECT_EQ(lines, records);
    if (records >= kChunk) {
      EXPECT_NE(bytes.find(std::string("\"detail\":\"") + kHostileJson +
                           std::to_string(kChunk - 1) + "\"}\n"),
                std::string::npos);
    }
  }
}

TEST(OrderedExport, SeriesBytesMatchAtEveryWorkerCountAroundAChunk) {
  constexpr std::size_t kChunk = kSeriesChunkRows;
  for (std::size_t rows : {std::size_t{0}, std::size_t{1}, kChunk,
                           kChunk + 1}) {
    MetricsRegistry registry;
    Sampler sampler(registry, sim::ms(10));
    Gauge& load = registry.gauge("vs_load", {{"board", kHostile}});
    Gauge& slots = registry.gauge("vs_slots");
    Counter& items = registry.counter("vs_items_total");
    for (std::size_t r = 0; r < rows; ++r) {
      load.set(static_cast<double>(r % 7) / 3.0);
      if (r % 2 == 0) slots.set(static_cast<double>(r));
      items.add(static_cast<std::int64_t>(r % 3));
      sampler.sample_now(sim::ms(10) * static_cast<sim::SimTime>(r + 1));
    }
    const std::string bytes = same_bytes_at_1_2_4_workers(
        [&](std::ostream& out) {
          write_timeseries_jsonl(sampler, registry, out);
        });
    std::size_t lines = 0;
    for (char c : bytes) lines += c == '\n';
    EXPECT_EQ(lines, rows);
  }
}

TEST(OrderedExport, UnwritableFilesThrowTheSameMessageWithNoWorkerLeft) {
  const std::size_t before = thread_count();
  ScopedJobs scoped(4);
  ClusterTraceHub hub;
  fill_trace(hub, 20 * ClusterTraceHub::kTraceChunk, 50, 0);
  hub.enable_journal();
  for (int i = 0; i < 5000; ++i) {
    hub.channel("fpga-0").journal(i, JournalEvent::kAdmit, "fpga-0", i);
  }
  auto message = [](auto&& write) {
    try {
      write();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([&] {
              hub.write_chrome_trace_file("/nonexistent-dir/trace.json");
            }),
            "cannot open trace file /nonexistent-dir/trace.json");
  if (std::filesystem::exists("/dev/full")) {
    EXPECT_EQ(message([&] { hub.write_chrome_trace_file("/dev/full"); }),
              "cannot write trace file /dev/full");
    EXPECT_EQ(message([&] { hub.write_journal_file("/dev/full"); }),
              "cannot write journal file /dev/full");
  }
  EXPECT_LE(thread_count(before), before);
}

}  // namespace
}  // namespace vs::obs
