// Cluster-wide causal observability tests: the trace hub's merged Chrome
// trace with flow events, the structured run journal and its round-trip
// parser, the compact TraceRecorder, seal by move, response-time phase
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
    recorder.add(i, i + 1, "lane", "label", sim::SpanKind::kMarker);
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

  // Recording through names interns the same way; a disabled recorder
  // records nothing and interns nothing.
  sim::TraceRecorder off;
  off.add(0, 1, "x", "y", sim::SpanKind::kExec);
  EXPECT_EQ(off.size(), 0u);
  EXPECT_TRUE(off.lanes().empty());
  sim::TraceRecorder named;
  named.enable();
  named.add(5, 9, "L1", "a", sim::SpanKind::kExec);
  named.add(6, 7, "B0", "b", sim::SpanKind::kReconfig);
  named.add(8, 9, "L1", "c", sim::SpanKind::kExec);
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
  rec.add(1000, 3000, "slot L1", "A PR", sim::SpanKind::kReconfig);
  rec.add(2000, 6000, "core", "pass", sim::SpanKind::kCoreOp);
  rec.add(2500, 5000, "core", "pass \"hot\"\nb\\c", sim::SpanKind::kCoreOp);
  // Past 10 s a timestamp needs more than six significant digits.
  rec.add(16444000500, 16444003000, "slot L1", "late", sim::SpanKind::kExec);
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
      "{\"name\":\"pass\",\"cat\":\"core\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":2,\"ts\":2,\"dur\":4},\n"
      "{\"name\":\"pass \\\"hot\\\"\\nb\\\\c\",\"cat\":\"core\",\"ph\":\"X\","
      "\"pid\":1,\"tid\":2,\"ts\":2.5,\"dur\":2.5},\n"
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
  rec.add(0, 1500, "L\"0\"", "q\"uote \\back\\slash", sim::SpanKind::kExec);
  rec.add(2000, 2001, "tab\tlane", std::string("ctl\x01\x1f\r\n\b end"),
          sim::SpanKind::kReconfig);
  rec.add(3000, 123000003000, "L\"0\"", "", sim::SpanKind::kBlocked);
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
    rec.add(100, 200, "lane", "old", sim::SpanKind::kMarker);
    rec.add(300, 400, "lane", "new", sim::SpanKind::kMarker);
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
  a1.add(10, 20, "L0", "a1 \"x\"\t\x1f", sim::SpanKind::kExec);
  a1.add(15, 40, "fabric", "a1 full", sim::SpanKind::kReconfig);
  a2.add(50, 60, "B1", "a2", sim::SpanKind::kReconfig);
  a2.add(55, 70, "L0", "a2 exec", sim::SpanKind::kExec);
  b.add(10, 30, "L0", "b", sim::SpanKind::kExec);
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
  ClusterTraceHub hub;
  hub.enable_journal();
  TraceChannel& ch = hub.channel("b0");
  ch.journal(1500000, JournalEvent::kAdmit, "b0", 3, "Digit", 0, "batch 17");
  ch.journal(2000000, JournalEvent::kCrash, "b0", -1, {}, 42,
             "2 displaced\nwith \"quotes\" and \\slashes");
  ch.journal(2500000, JournalEvent::kComplete, "b0", 3, "Digit");

  std::ostringstream out;
  hub.write_journal(out);
  std::istringstream in(out.str());
  auto records = parse_journal(in);
  ASSERT_EQ(records.size(), 3u);

  EXPECT_EQ(records[0].time, 1500000);
  EXPECT_EQ(records[0].event, JournalEvent::kAdmit);
  EXPECT_EQ(records[0].board, "b0");
  EXPECT_EQ(records[0].app, 3);
  EXPECT_EQ(records[0].spec, "Digit");
  EXPECT_EQ(records[0].flow, 0u);
  EXPECT_EQ(records[0].detail, "batch 17");

  EXPECT_EQ(records[1].event, JournalEvent::kCrash);
  EXPECT_EQ(records[1].app, -1);
  EXPECT_EQ(records[1].flow, 42u);
  EXPECT_EQ(records[1].detail,
            "2 displaced\nwith \"quotes\" and \\slashes");

  EXPECT_EQ(records[2].event, JournalEvent::kComplete);
  EXPECT_EQ(records[2].detail, "");
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
  for (JournalEvent e :
       {JournalEvent::kAdmit, JournalEvent::kBind, JournalEvent::kPreempt,
        JournalEvent::kCheckpoint, JournalEvent::kComplete,
        JournalEvent::kMigrate, JournalEvent::kCrash, JournalEvent::kRestore,
        JournalEvent::kShed, JournalEvent::kReadmit}) {
    JournalEvent parsed;
    ASSERT_TRUE(journal_event_from_string(to_string(e), parsed))
        << to_string(e);
    EXPECT_EQ(parsed, e);
  }
  JournalEvent unused;
  EXPECT_FALSE(journal_event_from_string("not-an-event", unused));
}

TEST(RunJournal, MergeIsStableAcrossEqualTimestamps) {
  ClusterTraceHub hub;
  hub.enable_journal();
  TraceChannel& first = hub.channel("first");
  TraceChannel& second = hub.channel("second");
  second.journal(100, JournalEvent::kAdmit, "second");
  first.journal(100, JournalEvent::kAdmit, "first");
  first.journal(50, JournalEvent::kAdmit, "first");
  auto merged = hub.merged_journal();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].time, 50);
  // Equal timestamps keep channel-creation order: "first" was created
  // first, so its t=100 record precedes "second"'s.
  EXPECT_EQ(merged[1].board, "first");
  EXPECT_EQ(merged[2].board, "second");
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
             "response_ms ", util::Fixed{12.5});
  b0.journal(200, JournalEvent::kCheckpoint, "b0", 4, "Digit", 8, "delta ",
             std::int64_t{4096}, " B");

  const std::vector<FlowPoint> flows = hub.merged_flows();
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].id, 8u);
  EXPECT_EQ(flows[0].phase, FlowPhase::kStart);
  EXPECT_EQ(flows[0].time, 100);
  EXPECT_EQ(flows[0].board, "b0");
  EXPECT_EQ(flows[0].lane, "ckpt");
  EXPECT_EQ(flows[0].name, "ckpt Digit#4");
  EXPECT_EQ(flows[1].board, "b1");
  EXPECT_EQ(flows[1].lane, "recovery");
  EXPECT_EQ(flows[1].name, "readmit");

  const std::vector<JournalRecord> merged = hub.merged_journal();
  ASSERT_EQ(merged.size(), 3u);
  // std::to_string(double)'s "%f" bytes.
  EXPECT_EQ(merged[0].detail, "response_ms " + std::to_string(12.5));
  EXPECT_EQ(merged[1].detail, "delta 4096 B");
  EXPECT_EQ(merged[1].flow, 8u);
  EXPECT_EQ(merged[2].board, "b1");
  EXPECT_EQ(merged[2].app, -1);
  EXPECT_EQ(merged[2].spec, "Digit");
  EXPECT_EQ(merged[2].detail, "");

  // The JSONL file parses back to the merged records, field for field.
  std::ostringstream out;
  hub.write_journal(out);
  std::istringstream in(out.str());
  const std::vector<JournalRecord> parsed = parse_journal(in);
  ASSERT_EQ(parsed.size(), merged.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].time, merged[i].time) << i;
    EXPECT_EQ(parsed[i].event, merged[i].event) << i;
    EXPECT_EQ(parsed[i].board, merged[i].board) << i;
    EXPECT_EQ(parsed[i].app, merged[i].app) << i;
    EXPECT_EQ(parsed[i].spec, merged[i].spec) << i;
    EXPECT_EQ(parsed[i].flow, merged[i].flow) << i;
    EXPECT_EQ(parsed[i].detail, merged[i].detail) << i;
  }
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
  util::CliArgs args(5, argv);
  ::setenv("VS_TRACE", "env-t.json", 1);
  ::setenv("VS_JOURNAL", "env-j.jsonl", 1);
  const metrics::Capture flagged(args);
  EXPECT_EQ(flagged.trace_out(), "t.json");
  EXPECT_EQ(flagged.journal_out(), "j.jsonl");
  util::CliArgs no_flag(1, argv);
  const metrics::Capture from_env(no_flag);
  EXPECT_EQ(from_env.trace_out(), "env-t.json");
  EXPECT_EQ(from_env.journal_out(), "env-j.jsonl");
  const char* emptied[] = {"prog", "--trace-out=", "--journal-out="};
  util::CliArgs empty_flags(3, emptied);
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
  auto flows = hub.merged_flows();
  bool crash_chain_closed = false;
  for (const FlowPoint& s : flows) {
    if (s.phase != FlowPhase::kStart || s.name.rfind("crash", 0) != 0) {
      continue;
    }
    for (const FlowPoint& f : flows) {
      if (f.id == s.id && f.phase == FlowPhase::kEnd) {
        crash_chain_closed = true;
      }
    }
  }
  EXPECT_TRUE(crash_chain_closed);

  std::ostringstream journal_out;
  hub.write_journal(journal_out);
  std::istringstream journal_in(journal_out.str());
  auto records = parse_journal(journal_in);
  int crashes = 0, restores = 0, completes = 0, admits = 0;
  for (const JournalRecord& rec : records) {
    if (rec.event == JournalEvent::kCrash) ++crashes;
    if (rec.event == JournalEvent::kRestore) ++restores;
    if (rec.event == JournalEvent::kComplete) ++completes;
    if (rec.event == JournalEvent::kAdmit) ++admits;
  }
  EXPECT_GT(crashes, 0);
  EXPECT_GT(restores, 0);
  EXPECT_GT(completes, 0);
  EXPECT_GT(admits, 0);
  // Journal timestamps arrive merged in nondecreasing order.
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].time, records[i].time) << i;
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
    EXPECT_EQ(prometheus_text(telemetry.registry()).find("vs_app_phase_ms"),
              std::string::npos);
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
  std::string report =
      run_report_json(telemetry.registry(), telemetry.info(), nullptr);
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

  int completes = 0;
  for (const JournalRecord& rec : hub.merged_journal()) {
    EXPECT_EQ(rec.board, "fpga0");
    if (rec.event == JournalEvent::kComplete) ++completes;
  }
  EXPECT_EQ(completes, plain.completed);
  expect_phases_sum_to_response(traced.apps, "single-board traced");
}

}  // namespace
}  // namespace vs::obs
