// Cluster-wide causal observability tests: the trace hub's merged Chrome
// trace with flow events, the structured run journal's exact JSONL bytes,
// the compact TraceRecorder, seal by move, response-time phase
// accounting
// (phases sum exactly to response time across fault scenarios), and the
// pinned guarantee that none of it perturbs an uninstrumented cluster or
// single-board run.
#include <array>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/benchmarks.h"
#include "cluster/cluster.h"
#include "core/versaslot_policy.h"
#include "faults/scenario.h"
#include "metrics/capture.h"
#include "metrics/experiment.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace_hub.h"
#include "runtime/board_runtime.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "test_helpers.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/text_arena.h"
#include "workload/generator.h"

namespace vs::obs {
namespace {

// ------------------------------------------------------------- recorder

TEST(TraceRecorder, ClearReleasesSpanCapacity) {
  sim::TraceRecorder recorder;
  recorder.enable();
  for (int i = 0; i < 1000; ++i) {
    recorder.add(i, i + 1, recorder.lane("lane"), sim::SpanKind::kMarker,
                 "label");
  }
  ASSERT_EQ(recorder.size(), 1000u);
  ASSERT_GE(recorder.reserved_bytes(),
            1000u * sizeof(sim::TraceRecorder::Record));
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_TRUE(recorder.spans().empty());
  EXPECT_TRUE(recorder.lanes().empty());
  // The swap idiom must release the backing allocations, not just size().
  EXPECT_EQ(recorder.reserved_bytes(), 0u);
}

TEST(TraceRecorder, LanesInternInFirstAppearanceOrder) {
  sim::TraceRecorder rec;
  EXPECT_EQ(rec.lane("B0"), 0u);
  EXPECT_EQ(rec.lane("fabric"), 1u);
  EXPECT_EQ(rec.lane("B0"), 0u);
  EXPECT_EQ(rec.lane("L1"), 2u);
  EXPECT_EQ(rec.lanes(), (std::vector<std::string>{"B0", "fabric", "L1"}));

  // Recording interns the same way; a disabled recorder records nothing.
  sim::TraceRecorder off;
  off.add(0, 1, off.lane("x"), sim::SpanKind::kExec, "y");
  EXPECT_EQ(off.size(), 0u);
  sim::TraceRecorder named;
  named.enable();
  named.add(5, 9, named.lane("L1"), sim::SpanKind::kExec, "a");
  named.add(6, 7, named.lane("B0"), sim::SpanKind::kReconfig, "b");
  named.add(8, 9, named.lane("L1"), sim::SpanKind::kExec, "c");
  EXPECT_EQ(named.lanes(), (std::vector<std::string>{"L1", "B0"}));
  ASSERT_EQ(named.size(), 3u);
  EXPECT_EQ(named.records()[2].lane, 0u);
}

TEST(TraceRecorder, LabelsAreFormattedFromPieces) {
  sim::TraceRecorder rec;
  rec.enable();
  const sim::LaneId lane = rec.lane("L2");
  rec.add(100, 250, lane, sim::SpanKind::kExec, std::string("Digit"), '#',
          17, ".u", 0, " B", std::int64_t{-3});
  rec.add(300, 300, lane, sim::SpanKind::kMarker);
  const std::vector<sim::Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].label, "Digit#17.u0 B-3");
  EXPECT_EQ(spans[0].lane, "L2");
  EXPECT_EQ(spans[0].start, 100);
  EXPECT_EQ(spans[0].end, 250);
  EXPECT_EQ(spans[0].kind, sim::SpanKind::kExec);
  EXPECT_EQ(spans[1].label, "");
  EXPECT_EQ(spans[1].kind, sim::SpanKind::kMarker);
}

// --------------------------------------------- Prometheus label escaping

TEST(PrometheusEscaping, HostileLabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry
      .counter("vs_hostile_total",
               {{"board", "a\\b"}, {"spec", "q\"uote\nline"}})
      .add(3);
  std::ostringstream out;
  write_prometheus(registry, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("board=\"a\\\\b\""), std::string::npos) << text;
  EXPECT_NE(text.find("spec=\"q\\\"uote\\nline\""), std::string::npos)
      << text;
  // The exposition stays one sample per line: no raw newline leaked into
  // the label block.
  EXPECT_EQ(text.find("uote\nline"), std::string::npos) << text;
}

// ------------------------------------------------------------ hub golden

TEST(TraceHub, GoldenChromeTraceWithFlowEvents) {
  ClusterTraceHub hub;
  hub.enable_trace();

  sim::TraceRecorder rec;
  rec.enable();
  const sim::LaneId slot = rec.lane("slot L1");
  const sim::LaneId core = rec.lane("core");
  rec.add(1000, 3000, slot, sim::SpanKind::kReconfig, "A PR");
  rec.add(2000, 6000, core, sim::SpanKind::kBlocked, "pass");
  rec.add(2500, 5000, core, sim::SpanKind::kBlocked, "pass \"hot\"\nb\\c");
  // Past 10 s a timestamp needs more than six significant digits.
  rec.add(16444000500, 16444003000, slot, sim::SpanKind::kExec, "late");
  hub.attach_spans("b0", &rec);

  TraceChannel& b0 = hub.channel("b0");
  TraceChannel& cl = hub.channel("cluster");
  std::uint64_t id = b0.new_flow_id();
  EXPECT_EQ(id, (std::uint64_t{1} << 32) | 1u);
  b0.flow(id, FlowPhase::kStart, 2000, "b0", "migration", "go");
  cl.flow(id, FlowPhase::kStep, 4000, "cluster", "recovery", "hop");
  b0.flow(id, FlowPhase::kEnd, 5000, "b0", "slot L1", "land");

  std::ostringstream out;
  hub.write_chrome_trace(out);
  const std::string expected =
      "[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"b0\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"slot L1\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
      "\"args\":{\"name\":\"core\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":3,"
      "\"args\":{\"name\":\"migration\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
      "\"args\":{\"name\":\"cluster\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,"
      "\"args\":{\"name\":\"recovery\"}},\n"
      "{\"name\":\"A PR\",\"cat\":\"reconfig\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":1,\"ts\":1,\"dur\":2},\n"
      "{\"name\":\"pass\",\"cat\":\"blocked\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":2,\"ts\":2,\"dur\":4},\n"
      "{\"name\":\"pass \\\"hot\\\"\\nb\\\\c\",\"cat\":\"blocked\","
      "\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":2.5,\"dur\":2.5},\n"
      "{\"name\":\"late\",\"cat\":\"exec\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":1,\"ts\":16444000.5,\"dur\":2.5},\n"
      "{\"name\":\"go\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":4294967297,"
      "\"pid\":1,\"tid\":3,\"ts\":2},\n"
      "{\"name\":\"hop\",\"cat\":\"flow\",\"ph\":\"t\",\"id\":4294967297,"
      "\"pid\":2,\"tid\":1,\"ts\":4},\n"
      "{\"name\":\"land\",\"cat\":\"flow\",\"ph\":\"f\",\"id\":4294967297,"
      "\"pid\":1,\"tid\":1,\"ts\":5,\"bp\":\"e\"}\n"
      "]\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(TraceHub, HostileNamesExportAsBefore) {
  // Quotes, backslashes and control characters in board, lane, label and
  // flow names; timestamps that print in e-notation. The expected bytes
  // are what the writer produced before spans and flows became compact
  // records.
  ClusterTraceHub hub;
  hub.enable_trace();
  sim::TraceRecorder rec;
  rec.enable();
  const sim::LaneId quoted = rec.lane("L\"0\"");
  rec.add(0, 1500, quoted, sim::SpanKind::kExec, "q\"uote \\back\\slash");
  rec.add(2000, 2001, rec.lane("tab\tlane"), sim::SpanKind::kReconfig,
          std::string("ctl\x01\x1f\r\n\b end"));
  rec.add(3000, 123000003000, quoted, sim::SpanKind::kBlocked, "");
  hub.attach_spans("fpga \"0\"", &rec);
  hub.channel("cluster").flow(5, FlowPhase::kEnd, 123000000000000,
                              "fpga \"0\"", "tab\tlane", "f\\\"low\x7f");
  std::ostringstream out;
  hub.write_chrome_trace(out);
  const std::string expected =
      "[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":"
      "\"fpga \\\"0\\\"\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{"
      "\"name\":\"L\\\"0\\\"\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{"
      "\"name\":\"tab\\tlane\"}},\n"
      "{\"name\":\"q\\\"uote \\\\back\\\\slash\",\"cat\":\"exec\",\"ph\":\"X"
      "\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":1.5},\n"
      "{\"name\":\"ctl\\u0001\\u001f\\r\\n\\u0008 end\",\"cat\":\"reconfig\","
      "\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":2,\"dur\":0.001},\n"
      "{\"name\":\"\",\"cat\":\"blocked\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\""
      "ts\":3,\"dur\":1.23e+08},\n"
      "{\"name\":\"f\\\\\\\"low\x7f""\",\"cat\":\"flow\",\"ph\":\"f\",\"id\":"
      "5,\"pid\":1,\"tid\":2,\"ts\":1.23e+11,\"bp\":\"e\"}\n"
      "]\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(TraceHub, EmptyHubEmitsAnEmptyJsonArray) {
  ClusterTraceHub hub;
  std::ostringstream out;
  hub.write_chrome_trace(out);
  EXPECT_EQ(out.str(), "[\n]\n");
}

TEST(TraceHub, UnopenableTraceFileThrows) {
  ClusterTraceHub hub;
  EXPECT_THROW(hub.write_chrome_trace_file("/nonexistent-dir/trace.json"),
               std::runtime_error);
}

TEST(TraceHub, TraceWriteToFullDeviceThrows) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  ClusterTraceHub hub;
  try {
    hub.write_chrome_trace_file("/dev/full");
    ADD_FAILURE() << "write_chrome_trace_file returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

TEST(TraceHub, SealedSpansSurviveRecorderDestruction) {
  ClusterTraceHub hub;
  hub.enable_trace();
  {
    sim::TraceRecorder rec;
    rec.enable();
    rec.add(100, 200, rec.lane("lane"), sim::SpanKind::kMarker, "old");
    rec.add(300, 400, rec.lane("lane"), sim::SpanKind::kMarker, "new");
    hub.attach_spans("b0", &rec);
    hub.seal();
  }  // recorder destroyed; the hub must not dereference it
  std::ostringstream out;
  hub.write_chrome_trace(out);
  EXPECT_NE(out.str().find("\"old\""), std::string::npos);
  EXPECT_NE(out.str().find("\"new\""), std::string::npos);
}

TEST(TraceHub, SealMovesSpansAndKeepsTheExportBytes) {
  // Two boards, the first with two epochs' recorders; a hostile label and
  // lanes shared between recorders of one board.
  ClusterTraceHub hub;
  hub.enable_trace();
  sim::TraceRecorder a1, a2, b;
  for (sim::TraceRecorder* r : {&a1, &a2, &b}) r->enable();
  a1.add(10, 20, a1.lane("L0"), sim::SpanKind::kExec, "a1 \"x\"\t\x1f");
  a1.add(15, 40, a1.lane("fabric"), sim::SpanKind::kReconfig, "a1 full");
  a2.add(50, 60, a2.lane("B1"), sim::SpanKind::kReconfig, "a2");
  a2.add(55, 70, a2.lane("L0"), sim::SpanKind::kExec, "a2 exec");
  b.add(10, 30, b.lane("L0"), sim::SpanKind::kExec, "b");
  hub.attach_spans("fpga0", &a1);
  hub.attach_spans("fpga1", &b);
  hub.attach_spans("fpga0", &a2);
  hub.channel("cluster").flow(7, FlowPhase::kStart, 12, "fpga0", "B1",
                              "hop");

  std::ostringstream live;
  hub.write_chrome_trace(live);
  hub.seal();
  for (const sim::TraceRecorder* r : {&a1, &a2, &b}) {
    EXPECT_EQ(r->size(), 0u);
    EXPECT_TRUE(r->lanes().empty());
    EXPECT_EQ(r->reserved_bytes(), 0u);
  }
  std::ostringstream sealed;
  hub.write_chrome_trace(sealed);
  EXPECT_EQ(sealed.str(), live.str());
  // The flow's lane "B1" is fpga0's third span lane: tids follow lanes'
  // first appearance across the board's recorders.
  EXPECT_NE(live.str().find("\"ph\":\"M\",\"pid\":1,\"tid\":3,"
                            "\"args\":{\"name\":\"B1\"}"),
            std::string::npos)
      << live.str();
  EXPECT_NE(live.str().find("\"name\":\"a1 \\\"x\\\"\\t\\u001f\""),
            std::string::npos)
      << live.str();
}

TEST(TraceHub, ExportAfterTheRunMatchesTheLiveExport) {
  // A traced single-board run exports the same bytes from the live
  // recorders and, after seal(), once the runtime is gone.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 12;
  util::Rng rng(2025);
  workload::Sequence seq = workload::generate_sequence(config, rng);

  ClusterTraceHub hub;
  hub.enable_trace();
  hub.enable_journal();
  std::string live;
  {
    sim::Simulator sim;
    fpga::Board board(sim, "fpga0", fpga::FabricConfig::big_little(),
                      params);
    core::VersaSlotPolicy policy{core::VersaSlotOptions{}};
    runtime::BoardRuntime rt(board, policy);
    hub.attach_spans(board.name(), &rt.trace());
    rt.trace().enable();
    rt.bind_observability(&hub.channel(board.name()));
    for (const apps::AppArrival& a : seq) {
      sim.schedule_at(a.arrival, [&rt, &suite, a] {
        rt.submit(suite.at(static_cast<std::size_t>(a.spec_index)),
                  a.spec_index, a.batch, a.arrival, a.item_interval);
      });
    }
    sim.run();
    ASSERT_GT(rt.trace().size(), 0u);
    std::ostringstream out;
    hub.write_chrome_trace(out);
    live = out.str();
    hub.seal();
    EXPECT_EQ(rt.trace().size(), 0u);
  }
  std::ostringstream after;
  hub.write_chrome_trace(after);
  EXPECT_EQ(after.str(), live);
}

TEST(TraceHub, FlowIdsAreNamespacedPerChannel) {
  ClusterTraceHub hub;
  TraceChannel& a = hub.channel("a");
  TraceChannel& b = hub.channel("b");
  std::uint64_t a1 = a.new_flow_id();
  std::uint64_t a2 = a.new_flow_id();
  std::uint64_t b1 = b.new_flow_id();
  EXPECT_NE(a1, a2);
  EXPECT_NE(a1, b1);
  EXPECT_NE(a2, b1);
  // Re-requesting a channel by name returns the same channel.
  EXPECT_EQ(&hub.channel("a"), &a);
}

// ------------------------------------------------------------ run journal

TEST(RunJournal, RoundTripsThroughJsonl) {
  // Every field a record carries reaches its JSONL line, and the detail's
  // control characters, quotes and backslashes are escaped, not lost.
  ClusterTraceHub hub;
  hub.enable_journal();
  TraceChannel& ch = hub.channel("b0");
  ch.journal(1500000, JournalEvent::kAdmit, "b0", 3, "Digit", 0, "batch 17");
  ch.journal(2000000, JournalEvent::kCrash, "b0", -1, {}, 42,
             "2 displaced\nwith \"quotes\" and \\slashes\t\x1b");
  ch.journal(2500000, JournalEvent::kComplete, "b0", 3, "Digit");

  std::ostringstream out;
  hub.write_journal(out);
  EXPECT_EQ(out.str(),
      "{\"t_ns\":1500000,\"t_ms\":1.5,\"event\":\"admit\",\"board\":\"b0\","
      "\"app\":3,\"spec\":\"Digit\",\"detail\":\"batch 17\"}\n"
      "{\"t_ns\":2000000,\"t_ms\":2,\"event\":\"crash\",\"board\":\"b0\","
      "\"flow\":42,\"detail\":\"2 displaced\\nwith \\\"quotes\\\" and "
      "\\\\slashes\\t\\u001b\"}\n"
      "{\"t_ns\":2500000,\"t_ms\":2.5,\"event\":\"complete\","
      "\"board\":\"b0\",\"app\":3,\"spec\":\"Digit\"}\n");
}

TEST(RunJournal, GoldenJsonl) {
  // Exact bytes: every optional field present and absent, hostile board
  // and detail strings, app 0 (present) vs -1 (omitted), and a fractional
  // t_ms past 10 s.
  ClusterTraceHub hub;
  hub.enable_journal();
  TraceChannel& b0 = hub.channel("b0");
  TraceChannel& cl = hub.channel("cluster");
  b0.journal(1500000, JournalEvent::kAdmit, "b0", 3, "Digit");
  cl.journal(2000000, JournalEvent::kCrash, "fpga \"hot\"\\0", -1, {}, 42,
             "2 displaced\nwith\t\x01 \"quotes\" and \\slashes");
  b0.journal(12345678901, JournalEvent::kComplete, "b0", 0, {}, 7,
             "slot L2 unit 1");
  cl.journal(12345678901, JournalEvent::kReadmit, "cluster");

  std::ostringstream out;
  hub.write_journal(out);
  const std::string expected =
      "{\"t_ns\":1500000,\"t_ms\":1.5,\"event\":\"admit\",\"board\":\"b0\","
      "\"app\":3,\"spec\":\"Digit\"}\n"
      "{\"t_ns\":2000000,\"t_ms\":2,\"event\":\"crash\","
      "\"board\":\"fpga \\\"hot\\\"\\\\0\",\"flow\":42,"
      "\"detail\":\"2 displaced\\nwith\\t\\u0001 \\\"quotes\\\" and "
      "\\\\slashes\"}\n"
      "{\"t_ns\":12345678901,\"t_ms\":12345.678901,\"event\":\"complete\","
      "\"board\":\"b0\",\"app\":0,\"flow\":7,\"detail\":\"slot L2 unit 1\"}\n"
      "{\"t_ns\":12345678901,\"t_ms\":12345.678901,\"event\":\"readmit\","
      "\"board\":\"cluster\"}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(RunJournal, WriteToFullDeviceThrows) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  ClusterTraceHub hub;
  hub.enable_journal();
  hub.channel("b0").journal(1000, JournalEvent::kAdmit, "b0", 1, "Digit");
  try {
    hub.write_journal_file("/dev/full");
    ADD_FAILURE() << "write_journal_file returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

TEST(RunJournal, EventNamesRoundTrip) {
  // Each event is written under its own name, so a reader of the JSONL can
  // map every record back to exactly one event.
  const std::vector<std::pair<JournalEvent, std::string>> names = {
      {JournalEvent::kAdmit, "admit"},
      {JournalEvent::kBind, "bind"},
      {JournalEvent::kPreempt, "preempt"},
      {JournalEvent::kCheckpoint, "checkpoint"},
      {JournalEvent::kComplete, "complete"},
      {JournalEvent::kMigrate, "migrate"},
      {JournalEvent::kCrash, "crash"},
      {JournalEvent::kRestore, "restore"},
      {JournalEvent::kShed, "shed"},
      {JournalEvent::kReadmit, "readmit"}};
  ClusterTraceHub hub;
  hub.enable_journal();
  TraceChannel& ch = hub.channel("b0");
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(to_string(names[i].first), names[i].second);
    ch.journal(static_cast<sim::SimTime>(i), names[i].first, "b0");
  }
  const std::vector<std::string> lines = test::journal_lines(hub);
  ASSERT_EQ(lines.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string field = "\"event\":\"" + names[i].second + "\"";
    EXPECT_NE(lines[i].find(field), std::string::npos) << lines[i];
    EXPECT_EQ(test::count_lines(lines, {field}), 1) << field;
  }
}

TEST(RunJournal, MergeIsStableAcrossEqualTimestamps) {
  ClusterTraceHub hub;
  hub.enable_journal();
  TraceChannel& first = hub.channel("first");
  TraceChannel& second = hub.channel("second");
  second.journal(100, JournalEvent::kAdmit, "second", 1, {}, 0, "s\t\"1\"");
  first.journal(100, JournalEvent::kAdmit, "first", 2, {}, 0, "f\\2\n");
  first.journal(50, JournalEvent::kAdmit, "first", 3, {}, 0, "f\x01" "3");
  // The earliest record leads; equal timestamps keep channel-creation
  // order: "first" was created first, so its t=100 record precedes
  // "second"'s.
  std::ostringstream out;
  hub.write_journal(out);
  EXPECT_EQ(out.str(),
      "{\"t_ns\":50,\"t_ms\":5e-05,\"event\":\"admit\",\"board\":\"first\","
      "\"app\":3,\"detail\":\"f\\u00013\"}\n"
      "{\"t_ns\":100,\"t_ms\":1e-04,\"event\":\"admit\",\"board\":\"first\","
      "\"app\":2,\"detail\":\"f\\\\2\\n\"}\n"
      "{\"t_ns\":100,\"t_ms\":1e-04,\"event\":\"admit\","
      "\"board\":\"second\",\"app\":1,\"detail\":\"s\\t\\\"1\\\"\"}\n");
}

TEST(RunJournal, MergedRecordsCarryEveryField) {
  ClusterTraceHub hub;
  hub.enable_trace();
  hub.enable_journal();
  TraceChannel& b0 = hub.channel("b0");
  TraceChannel& cl = hub.channel("cluster");
  cl.flow(9, FlowPhase::kEnd, 300, "b1", "recovery", "readmit");
  b0.flow(8, FlowPhase::kStart, 100, "b0", "ckpt", "ckpt ", "Digit", '#', 4);
  cl.journal(300, JournalEvent::kReadmit, "b1", -1, "Digit", 9);
  b0.journal(100, JournalEvent::kComplete, "b0", 4, "Digit", 0,
             "response_ms ", util::Fixed{12.5}, "\n\t\"q\" \\ \x7f\x1f");
  b0.journal(200, JournalEvent::kCheckpoint, "b0", 4, "Digit", 8, "delta ",
             std::int64_t{4096}, " B");

  // Flow points: id, phase, time, board process, lane thread and name.
  std::ostringstream trace;
  hub.write_chrome_trace(trace);
  EXPECT_EQ(trace.str(),
      "[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"b0\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"ckpt\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
      "\"args\":{\"name\":\"b1\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,"
      "\"args\":{\"name\":\"recovery\"}},\n"
      "{\"name\":\"ckpt Digit#4\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":8,"
      "\"pid\":1,\"tid\":1,\"ts\":0.1},\n"
      "{\"name\":\"readmit\",\"cat\":\"flow\",\"ph\":\"f\",\"id\":9,"
      "\"pid\":2,\"tid\":1,\"ts\":0.3,\"bp\":\"e\"}\n"
      "]\n");

  // Journal records, merged by time: every field and the piece-formatted
  // details (util::Fixed prints as std::to_string(double)'s "%f").
  std::ostringstream journal;
  hub.write_journal(journal);
  EXPECT_EQ(journal.str(),
      "{\"t_ns\":100,\"t_ms\":1e-04,\"event\":\"complete\",\"board\":\"b0\","
      "\"app\":4,\"spec\":\"Digit\",\"detail\":\"response_ms 12.500000"
      "\\n\\t\\\"q\\\" \\\\ \x7f\\u001f\"}\n"
      "{\"t_ns\":200,\"t_ms\":2e-04,\"event\":\"checkpoint\","
      "\"board\":\"b0\",\"app\":4,\"spec\":\"Digit\",\"flow\":8,"
      "\"detail\":\"delta 4096 B\"}\n"
      "{\"t_ns\":300,\"t_ms\":3e-04,\"event\":\"readmit\",\"board\":\"b1\","
      "\"spec\":\"Digit\",\"flow\":9}\n");
}

TEST(TraceHub, NamesInternOncePerHub) {
  ClusterTraceHub hub;
  EXPECT_EQ(hub.intern(""), 0u);
  std::vector<NameId> ids;
  for (int i = 0; i < 1024; ++i) {
    ids.push_back(hub.intern("fpga" + std::to_string(i)));
  }
  for (int i = 0; i < 1024; ++i) {
    EXPECT_EQ(hub.intern("fpga" + std::to_string(i)),
              ids[static_cast<std::size_t>(i)]);
    EXPECT_EQ(hub.name(ids[static_cast<std::size_t>(i)]),
              "fpga" + std::to_string(i));
  }
}

// -------------------------------------------------------------- resolvers

TEST(Resolvers, TraceAndJournalOutPreferFlagThenEnv) {
  const char* argv[] = {"prog", "--trace-out", "t.json", "--journal-out",
                        "j.jsonl"};
  util::CliArgs args(5, argv, {metrics::Capture::kFlags});
  ::setenv("VS_TRACE", "env-t.json", 1);
  ::setenv("VS_JOURNAL", "env-j.jsonl", 1);
  const metrics::Capture flagged(args);
  EXPECT_EQ(flagged.trace_out(), "t.json");
  EXPECT_EQ(flagged.journal_out(), "j.jsonl");
  util::CliArgs no_flag(1, argv, {metrics::Capture::kFlags});
  const metrics::Capture from_env(no_flag);
  EXPECT_EQ(from_env.trace_out(), "env-t.json");
  EXPECT_EQ(from_env.journal_out(), "env-j.jsonl");
  const char* emptied[] = {"prog", "--trace-out=", "--journal-out="};
  util::CliArgs empty_flags(3, emptied, {metrics::Capture::kFlags});
  const metrics::Capture switched_off(empty_flags);
  EXPECT_EQ(switched_off.trace_out(), "");
  EXPECT_EQ(switched_off.journal_out(), "");
  ::setenv("VS_TRACE", "", 1);
  ::setenv("VS_JOURNAL", "", 1);
  EXPECT_FALSE(metrics::Capture(no_flag).requested());
  ::unsetenv("VS_TRACE");
  ::unsetenv("VS_JOURNAL");
  const metrics::Capture unset(no_flag);
  EXPECT_EQ(unset.trace_out(), "");
  EXPECT_EQ(unset.journal_out(), "");
  EXPECT_FALSE(unset.requested());
}

// ----------------------------------------------------- phase accounting

workload::Sequence stress_sequence(std::uint64_t seed, int apps) {
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = apps;
  util::Rng rng(seed);
  return workload::generate_sequence(config, rng);
}

faults::FaultScenario faulty_scenario() {
  faults::FaultScenario s;
  s.seed = 77;
  s.hazards.board_crash_per_s = 0.05;
  s.hazards.link_flap_per_s = 0.05;
  s.hazards.slot_seu_per_s = 0.1;
  s.horizon = sim::seconds(60.0);
  s.timeline.push_back(
      {sim::seconds(1.0), faults::FaultKind::kBoardCrash, 0, -1});
  return s;
}

void expect_phases_sum_to_response(
    const std::vector<runtime::CompletedApp>& apps, const char* label) {
  ASSERT_GT(apps.size(), 0u) << label;
  for (const runtime::CompletedApp& c : apps) {
    sim::SimDuration total = 0;
    for (sim::SimDuration d : c.phase_ns) {
      EXPECT_GE(d, 0) << label << " app " << c.app_id;
      total += d;
    }
    // Integer-exact: the invariant holds to the nanosecond, not within a
    // floating-point tolerance.
    EXPECT_EQ(total, c.completed - c.arrival) << label << " app " << c.app_id;
  }
}

TEST(PhaseAccounting, PhasesSumExactlyToResponseAcrossScenarios) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  for (std::uint64_t seed : {2025u, 77u}) {
    workload::Sequence seq = stress_sequence(seed, 25);
    for (int scenario = 0; scenario < 3; ++scenario) {
      cluster::ClusterOptions options;
      options.phase_accounting = true;
      if (scenario >= 1) options.faults = faulty_scenario();
      if (scenario == 2) {
        options.checkpoint.enabled = true;
        options.checkpoint.delta = true;
      }
      metrics::ClusterRunResult r = metrics::run_cluster(suite, seq, options);
      std::string label = "seed " + std::to_string(seed) + " scenario " +
                          std::to_string(scenario);
      expect_phases_sum_to_response(r.apps, label.c_str());
    }
  }
}

TEST(PhaseAccounting, ObservabilityDoesNotPerturbAFaultedClusterRun) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::Sequence seq = stress_sequence(2025, 25);

  cluster::ClusterOptions plain_options;
  plain_options.faults = faulty_scenario();
  metrics::ClusterRunResult plain =
      metrics::run_cluster(suite, seq, plain_options);
  ASSERT_GT(plain.recovery.boards_crashed, 0);

  ClusterTraceHub hub;
  hub.enable_trace();
  hub.enable_journal();
  cluster::ClusterOptions instrumented_options = plain_options;
  instrumented_options.hub = &hub;
  instrumented_options.phase_accounting = true;
  metrics::ClusterRunResult instrumented =
      metrics::run_cluster(suite, seq, instrumented_options);

  ASSERT_EQ(instrumented.response_ms.size(), plain.response_ms.size());
  for (std::size_t i = 0; i < plain.response_ms.size(); ++i) {
    EXPECT_EQ(instrumented.response_ms[i], plain.response_ms[i]) << i;
  }
  EXPECT_EQ(instrumented.recovery.boards_crashed,
            plain.recovery.boards_crashed);
  EXPECT_EQ(instrumented.recovery.apps_evacuated,
            plain.recovery.apps_evacuated);
  EXPECT_EQ(instrumented.recovery.mttr_total, plain.recovery.mttr_total);
  EXPECT_EQ(instrumented.events, plain.events);
}

TEST(PhaseAccounting, FaultedClusterTraceCarriesCausalChains) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::Sequence seq = stress_sequence(2025, 25);

  ClusterTraceHub hub;
  hub.enable_trace();
  hub.enable_journal();
  cluster::ClusterOptions options;
  options.faults = faulty_scenario();
  options.hub = &hub;
  options.phase_accounting = true;
  metrics::ClusterRunResult r = metrics::run_cluster(suite, seq, options);
  ASSERT_GT(r.recovery.boards_crashed, 0);

  std::ostringstream trace_out;
  hub.write_chrome_trace(trace_out);
  const std::string trace = trace_out.str();
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(trace.find("\"bp\":\"e\""), std::string::npos);

  // A crash flow starts on the origin board and its readmission terminus
  // lands on a board process; both hops share the flow id.
  bool crash_chain_closed = false;
  std::istringstream trace_in(trace);
  for (std::string line; std::getline(trace_in, line);) {
    if (line.rfind("{\"name\":\"crash", 0) != 0 ||
        line.find("\"cat\":\"flow\",\"ph\":\"s\",\"id\":") ==
            std::string::npos) {
      continue;
    }
    const std::size_t at = line.find("\"id\":") + 5;
    const std::string id = line.substr(at, line.find(',', at) - at);
    if (trace.find("\"ph\":\"f\",\"id\":" + id + ",") != std::string::npos) {
      crash_chain_closed = true;
    }
  }
  EXPECT_TRUE(crash_chain_closed);

  const std::vector<std::string> journal = test::journal_lines(hub);
  EXPECT_GT(test::count_lines(journal, {"\"event\":\"crash\""}), 0);
  EXPECT_GT(test::count_lines(journal, {"\"event\":\"restore\""}), 0);
  EXPECT_GT(test::count_lines(journal, {"\"event\":\"complete\""}), 0);
  EXPECT_GT(test::count_lines(journal, {"\"event\":\"admit\""}), 0);
  // Journal timestamps arrive merged in nondecreasing order.
  std::int64_t last_ns = 0;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    ASSERT_EQ(journal[i].rfind("{\"t_ns\":", 0), 0u) << journal[i];
    const std::int64_t t_ns = std::stoll(journal[i].substr(8));
    EXPECT_LE(last_ns, t_ns) << i;
    last_ns = t_ns;
  }
}

TEST(PhaseAccounting, HistogramsRegisterOnlyWhenEnabledAndReconcile) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::Sequence seq = stress_sequence(2025, 20);

  // Without phase accounting the telemetry export carries no phase rows —
  // the byte-identity guarantee for --metrics-out alone.
  {
    Telemetry telemetry;
    (void)metrics::run_cluster(suite, seq, {}, sim::seconds(36000.0),
                               &telemetry);
    std::ostringstream prom;
    write_prometheus(telemetry.registry(), prom);
    EXPECT_EQ(prom.str().find("vs_app_phase_ms"), std::string::npos);
  }

  Telemetry telemetry;
  cluster::ClusterOptions options;
  options.phase_accounting = true;
  metrics::ClusterRunResult r = metrics::run_cluster(
      suite, seq, options, sim::seconds(36000.0), &telemetry);
  ASSERT_EQ(r.completed, r.submitted);

  // Per phase: every completion observes every phase exactly once, so each
  // phase's pooled count equals the number of completed apps, and the
  // pooled phase mass equals the pooled response mass.
  std::array<std::uint64_t, runtime::kAppPhaseCount> counts{};
  double phase_sum = 0;
  double response_sum = 0;
  for (const auto& row : telemetry.registry().histograms()) {
    if (row.name == "vs_app_phase_ms") {
      phase_sum += row.cell.sum();
      for (const auto& [k, v] : row.labels) {
        if (k != "phase") continue;
        for (std::size_t p = 0; p < runtime::kAppPhaseCount; ++p) {
          if (v == runtime::to_string(static_cast<runtime::AppPhase>(p))) {
            counts[p] += row.cell.count();
          }
        }
      }
    }
    if (row.name == "vs_app_response_ms") response_sum += row.cell.sum();
  }
  for (std::size_t p = 0; p < runtime::kAppPhaseCount; ++p) {
    EXPECT_EQ(counts[p], static_cast<std::uint64_t>(r.completed))
        << runtime::to_string(static_cast<runtime::AppPhase>(p));
  }
  EXPECT_NEAR(phase_sum, response_sum, 1e-6 * std::max(1.0, response_sum));

  // The run report renders the reconciled per-phase table.
  std::ostringstream out;
  write_run_report(telemetry.registry(), telemetry.info(), nullptr, out);
  const std::string report = out.str();
  EXPECT_NE(report.find("\"phases\": ["), std::string::npos);
  for (std::size_t p = 0; p < runtime::kAppPhaseCount; ++p) {
    EXPECT_NE(report.find(std::string("{\"phase\": \"") +
                          runtime::to_string(static_cast<runtime::AppPhase>(
                              p)) +
                          "\""),
              std::string::npos)
        << runtime::to_string(static_cast<runtime::AppPhase>(p));
  }
}

// ------------------------------------------------- single-board harness

TEST(TraceHub, SingleBoardRunTracesThroughTheHubUnperturbed) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::Sequence seq = stress_sequence(2025, 15);
  const auto kind = metrics::SystemKind::kVersaBigLittle;
  metrics::RunResult plain = metrics::run_single_board(kind, suite, seq);

  ClusterTraceHub hub;
  hub.enable_trace();
  hub.enable_journal();
  metrics::RunOptions options;
  options.hub = &hub;
  options.phase_accounting = true;
  metrics::RunResult traced =
      metrics::run_single_board(kind, suite, seq, options);

  // Bit-identical: doubles compared with ==, not within a tolerance.
  ASSERT_EQ(traced.completed, plain.completed);
  EXPECT_EQ(traced.response_ms, plain.response_ms);
  EXPECT_EQ(traced.makespan, plain.makespan);
  for (std::size_t i = 0; i < plain.apps.size(); ++i) {
    EXPECT_EQ(traced.apps[i].app_id, plain.apps[i].app_id) << i;
    EXPECT_EQ(traced.apps[i].completed, plain.apps[i].completed) << i;
  }
  EXPECT_EQ(traced.counters.pr_requests, plain.counters.pr_requests);
  EXPECT_EQ(traced.counters.pr_blocked, plain.counters.pr_blocked);
  EXPECT_EQ(traced.counters.preemptions, plain.counters.preemptions);
  EXPECT_EQ(traced.counters.items_executed, plain.counters.items_executed);
  EXPECT_EQ(traced.counters.passes, plain.counters.passes);
  EXPECT_EQ(traced.utilization.lut_used, plain.utilization.lut_used);
  EXPECT_EQ(traced.utilization.lut_fabric, plain.utilization.lut_fabric);

  // The hub was sealed before the runtime died: the export is one fpga0
  // process with one reconfiguration span per PR and one execution span
  // per batch item.
  std::ostringstream trace_out;
  hub.write_chrome_trace(trace_out);
  const std::string trace = trace_out.str();
  EXPECT_NE(trace.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                       "\"args\":{\"name\":\"fpga0\"}}"),
            std::string::npos);
  EXPECT_EQ(trace.find("\"pid\":2"), std::string::npos);
  auto count = [&trace](const std::string& needle) {
    std::int64_t n = 0;
    for (auto at = trace.find(needle); at != std::string::npos;
         at = trace.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"cat\":\"reconfig\",\"ph\":\"X\""),
            plain.counters.pr_requests);
  EXPECT_EQ(count("\"cat\":\"exec\",\"ph\":\"X\""),
            plain.counters.items_executed);

  const std::vector<std::string> journal = test::journal_lines(hub);
  EXPECT_EQ(test::count_lines(journal, {"\"board\":\"fpga0\""}),
            static_cast<int>(journal.size()));
  EXPECT_EQ(test::count_lines(journal, {"\"event\":\"complete\""}),
            plain.completed);
  expect_phases_sum_to_response(traced.apps, "single-board traced");
}

}  // namespace
}  // namespace vs::obs
