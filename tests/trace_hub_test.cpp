// Cluster-wide causal observability tests: the trace hub's merged Chrome
// trace with spans and flow events, the structured run journal's exact
// JSONL bytes, spans kept in the board's channel across the runtimes that
// recorded them, the Gantt renderer, response-time phase accounting
// (phases sum exactly to response time across fault scenarios), and the
// pinned guarantee that none of it perturbs an uninstrumented cluster or
// single-board run.
#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
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
#include "test_helpers.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/text_arena.h"
#include "workload/generator.h"

namespace vs::obs {
namespace {

// -------------------------------------------------------- channel spans

TEST(ChannelSpans, LabelsAreFormattedFromPieces) {
  ClusterTraceHub hub;
  TraceChannel& ch = hub.channel("b0");
  const NameId lane = ch.lane("L2");
  ch.span(100, 250, lane, SpanKind::kExec, std::string("Digit"), '#', 17,
          ".u", 0, " B", std::int64_t{-3});
  ch.span(300, 300, lane, SpanKind::kMarker);
  const std::vector<TraceChannel::Span>& spans = ch.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(ch.label(spans[0]), "Digit#17.u0 B-3");
  EXPECT_EQ(ch.lane_name(spans[0]), "L2");
  EXPECT_EQ(spans[0].start, 100);
  EXPECT_EQ(spans[0].end, 250);
  EXPECT_EQ(spans[0].kind, SpanKind::kExec);
  EXPECT_EQ(ch.label(spans[1]), "");
  EXPECT_EQ(spans[1].kind, SpanKind::kMarker);
}

TEST(ChannelSpans, LanesKeepFirstAppearanceOrder) {
  // A lane id is a hub name, one per name across channels. A lane's thread
  // and Gantt row follow its first span, not its first lane() call; a lane
  // with no span gets neither. A channel is a process from its first
  // lane() call, even with no span, and pids follow those calls, not
  // channel creation.
  ClusterTraceHub hub;
  hub.enable_trace();
  TraceChannel& b1 = hub.channel("b1");
  TraceChannel& ch = hub.channel("b0");
  const NameId b0 = ch.lane("B0");
  const NameId fabric = ch.lane("fabric");
  EXPECT_EQ(ch.lane("B0"), b0);
  EXPECT_NE(fabric, b0);
  const NameId l1 = b1.lane("L1");
  EXPECT_EQ(ch.lane("L1"), l1);
  ch.span(5, 9, l1, SpanKind::kExec, "a");
  ch.span(6, 7, b0, SpanKind::kReconfig, "b");
  ch.span(8, 9, l1, SpanKind::kExec, "c");

  std::ostringstream out;
  hub.write_chrome_trace(out);
  EXPECT_EQ(out.str(),
      "[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"b0\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"L1\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
      "\"args\":{\"name\":\"B0\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
      "\"args\":{\"name\":\"b1\"}},\n"
      "{\"name\":\"a\",\"cat\":\"exec\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":1,\"ts\":0.005,\"dur\":0.004},\n"
      "{\"name\":\"b\",\"cat\":\"reconfig\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":2,\"ts\":0.006,\"dur\":0.001},\n"
      "{\"name\":\"c\",\"cat\":\"exec\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":1,\"ts\":0.008,\"dur\":0.001}\n"
      "]\n");
  const std::string gantt = render_gantt(ch, 8);
  EXPECT_LT(gantt.find("\n  L1 |"), gantt.find("\n  B0 |")) << gantt;
  EXPECT_EQ(gantt.find("fabric"), std::string::npos) << gantt;
}

TEST(ChannelSpans, RebootedBoardKeepsOneChannelInEpochOrder) {
  // A board crashes mid-run and reboots with a fresh runtime. Both
  // runtimes record into the board's one channel, every span of the
  // crashed runtime before the first of its successor, and the merged
  // trace has one process for the board with one thread per lane name.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  const auto kind = metrics::SystemKind::kVersaOnlyLittle;
  ClusterTraceHub hub;
  hub.enable_trace();
  sim::Simulator sim;
  fpga::Board board(sim, "fpga0", metrics::fabric_for(kind), params);
  TraceChannel& ch = hub.channel(board.name());

  auto first_policy = metrics::make_policy(kind);
  runtime::BoardRuntime first(board, *first_policy);
  first.bind_observability(ch);
  (void)first.submit(suite[0], 0, /*batch=*/8, 0);
  while (ch.spans().size() < 3 && sim.step()) {
  }
  ASSERT_EQ(ch.spans().size(), 3u);
  (void)first.crash();
  const std::size_t crashed_at = ch.spans().size();

  board.reconfigure_fabric(board.fabric());
  auto second_policy = metrics::make_policy(kind);
  runtime::BoardRuntime second(board, *second_policy);
  second.bind_observability(ch);
  (void)second.submit(suite[1], 1, /*batch=*/2, sim.now());
  sim.run();
  ASSERT_EQ(second.completed().size(), 1u);

  const std::vector<TraceChannel::Span>& spans = ch.spans();
  ASSERT_GT(spans.size(), crashed_at);
  std::vector<std::string_view> first_lanes;
  bool lane_shared = false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& owner = i < crashed_at ? suite[0].name : suite[1].name;
    EXPECT_EQ(ch.label(spans[i]).substr(0, owner.size() + 1), owner + "#")
        << i;
    const std::string_view lane = ch.lane_name(spans[i]);
    if (i < crashed_at) {
      first_lanes.push_back(lane);
    } else if (std::find(first_lanes.begin(), first_lanes.end(), lane) !=
               first_lanes.end()) {
      lane_shared = true;
    }
  }
  ASSERT_TRUE(lane_shared) << "no lane carries spans of both runtimes";

  std::ostringstream out;
  hub.write_chrome_trace(out);
  std::istringstream lines(out.str());
  int processes = 0;
  std::vector<std::string> threads;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"process_name\"") != std::string::npos) ++processes;
    if (line.find("\"thread_name\"") == std::string::npos) continue;
    const std::string name = line.substr(line.rfind(":\"") + 2);
    EXPECT_EQ(std::find(threads.begin(), threads.end(), name), threads.end())
        << name;
    threads.push_back(name);
  }
  EXPECT_EQ(processes, 1);
  EXPECT_FALSE(threads.empty());
}

TEST(ChannelSpans, GanttOfTheNimblockTimelineKeepsItsBytes) {
  // examples/pipeline_timeline's Nimblock scenario (Fig 2): two 3-task
  // apps on six Little slots, the second arriving 20 ms after the first.
  // The expected chart is the one the example printed when each runtime
  // kept its own span log.
  const auto kind = metrics::SystemKind::kNimblock;
  sim::Simulator sim;
  fpga::Board board(sim, "fpga0", metrics::fabric_for(kind));
  auto policy = metrics::make_policy(kind);
  runtime::BoardRuntime rt(board, *policy);
  ClusterTraceHub hub;
  hub.enable_trace();
  TraceChannel& spans = hub.channel(board.name());
  rt.bind_observability(spans);
  auto demo_app = [&board](const std::string& name) {
    apps::AppSpec app;
    app.name = name;
    for (int i = 0; i < 3; ++i) {
      apps::TaskSpec t;
      t.index = i;
      t.name = "T" + std::to_string(i + 1);
      t.synth_usage = {24'000, 36'000, 32, 120};
      t.impl_usage = {15'000, 23'000, 32, 120};
      t.item_latency = sim::ms(30.0);
      t.item_bytes_in = 200'000;
      t.item_bytes_out = 100'000;
      t.bitstream_bytes = board.params().little_bitstream_bytes;
      app.tasks.push_back(t);
    }
    return app;
  };
  const apps::AppSpec app1 = demo_app("App1");
  const apps::AppSpec app2 = demo_app("App2");
  rt.submit(app1, 0, /*batch=*/3, 0);
  sim.schedule(sim::ms(20.0),
               [&] { rt.submit(app2, 1, /*batch=*/2, sim::ms(20.0)); });
  sim.run();
  EXPECT_EQ(render_gantt(spans, 110),
      "time: 20.00 us .. 1.593 s   "
      "(#=reconfig  ==exec  .=blocked  >=transfer)\n"
      "  L0 |#App1#0.u0 PR####                =A=                      "
      "         =A=                               =A=      |\n"
      "  L1 |#App1#0.u1 PR#####################                        "
      "         =A=                               =A=A=    |\n"
      "  L2 |#App1#0.u2 PR######################################       "
      "                                           =A=A=A=  |\n"
      "  L3 |                #App2#1.u0 PR#############################"
      "##########                                 =A=A=    |\n"
      "  L4 |                #App2#1.u1 PR#############################"
      "###########################                  =A=A=  |\n"
      "  L5 |                #App2#1.u2 PR#############################"
      "############################################   =A=A=|\n");
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

  TraceChannel& b0 = hub.channel("b0");
  TraceChannel& cl = hub.channel("cluster");
  const NameId slot = b0.lane("slot L1");
  const NameId core = b0.lane("core");
  b0.span(1000, 3000, slot, SpanKind::kReconfig, "A PR");
  b0.span(2000, 6000, core, SpanKind::kBlocked, "pass");
  b0.span(2500, 5000, core, SpanKind::kBlocked, "pass \"hot\"\nb\\c");
  // Past 10 s a timestamp needs more than six significant digits.
  b0.span(16444000500, 16444003000, slot, SpanKind::kExec, "late");

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
  TraceChannel& board = hub.channel("fpga \"0\"");
  const NameId quoted = board.lane("L\"0\"");
  board.span(0, 1500, quoted, SpanKind::kExec, "q\"uote \\back\\slash");
  board.span(2000, 2001, board.lane("tab\tlane"), SpanKind::kReconfig,
             std::string("ctl\x01\x1f\r\n\b end"));
  board.span(3000, 123000003000, quoted, SpanKind::kBlocked, "");
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

TEST(TraceHub, ExportAfterTheRunMatchesTheLiveExport) {
  // A traced single-board run. The hub owns the spans, so the export taken
  // after the runtime is destroyed, with no step in between, equals the
  // export taken while it lived.
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
  std::string live_journal;
  {
    sim::Simulator sim;
    fpga::Board board(sim, "fpga0", fpga::FabricConfig::big_little(),
                      params);
    core::VersaSlotPolicy policy{core::VersaSlotOptions{}};
    runtime::BoardRuntime rt(board, policy);
    rt.bind_observability(hub.channel(board.name()));
    for (const apps::AppArrival& a : seq) {
      sim.schedule_at(a.arrival, [&rt, &suite, a] {
        rt.submit(suite.at(static_cast<std::size_t>(a.spec_index)),
                  a.spec_index, a.batch, a.arrival, a.item_interval);
      });
    }
    sim.run();
    ASSERT_GT(hub.channel(board.name()).spans().size(), 0u);
    std::ostringstream out;
    hub.write_chrome_trace(out);
    live = out.str();
    std::ostringstream journal;
    hub.write_journal(journal);
    live_journal = journal.str();
  }
  std::ostringstream after;
  hub.write_chrome_trace(after);
  EXPECT_EQ(after.str(), live);
  std::ostringstream after_journal;
  hub.write_journal(after_journal);
  EXPECT_EQ(after_journal.str(), live_journal);
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

  // The export, taken after the runtime died, is one fpga0 process with
  // one reconfiguration span per PR and one execution span per batch item.
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
