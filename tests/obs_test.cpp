// Telemetry subsystem tests: registry semantics, histogram math, exporter
// round-trips, the sampler's change log against a dense oracle, digests of
// every capture file, the CLI capture path, and the pinned guarantee that
// enabling telemetry does not perturb simulation results.
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/benchmarks.h"
#include "cluster/cluster.h"
#include "metrics/capture.h"
#include "metrics/experiment.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "obs/trace_hub.h"
#include "sim/simulator.h"
#include "util/cli.h"
#include "workload/generator.h"

namespace vs::obs {
namespace {

// ------------------------------------------------------------------ helpers

std::int64_t sum_counters(const MetricsRegistry& registry,
                          const std::string& name) {
  std::int64_t total = 0;
  for (const auto& row : registry.counters()) {
    if (row.name == name) total += row.cell.value();
  }
  return total;
}

double sum_gauges(const MetricsRegistry& registry, const std::string& name) {
  double total = 0;
  for (const auto& row : registry.gauges()) {
    if (row.name == name) total += row.cell.value();
  }
  return total;
}

/// Minimal parser for the flat JSON objects the JSONL exporter emits:
/// `{"key":value,...}` with numeric values and backslash-escaped keys.
/// Returns key/value pairs in order; fails the test on malformed input.
std::vector<std::pair<std::string, double>> parse_flat_json(
    const std::string& line) {
  std::vector<std::pair<std::string, double>> out;
  std::size_t i = 0;
  auto fail = [&](const char* why) {
    ADD_FAILURE() << why << " at offset " << i << " in: " << line;
  };
  if (line.empty() || line.front() != '{' || line.back() != '}') {
    fail("not an object");
    return out;
  }
  i = 1;
  while (i < line.size() - 1) {
    if (line[i] != '"') {
      fail("expected key quote");
      return out;
    }
    ++i;
    std::string key;
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\' && i + 1 < line.size()) {
        key += line[i + 1];
        i += 2;
      } else {
        key += line[i++];
      }
    }
    ++i;  // closing quote
    if (i >= line.size() || line[i] != ':') {
      fail("expected colon");
      return out;
    }
    ++i;
    std::size_t end = line.find_first_of(",}", i);
    char* parsed_end = nullptr;
    std::string num = line.substr(i, end - i);
    double v = std::strtod(num.c_str(), &parsed_end);
    if (parsed_end == num.c_str() || *parsed_end != '\0') {
      fail("value is not a number");
      return out;
    }
    out.emplace_back(std::move(key), v);
    i = end;
    if (line[i] == ',') ++i;
  }
  return out;
}

/// One dense sampling row: every gauge, then every counter (as doubles),
/// in registration order.
struct DenseRow {
  sim::SimTime time = 0;
  std::size_t gauge_count = 0;
  std::vector<double> values;
};

/// The dense sampler the change log replaced, kept as a test oracle: each
/// sample copies every instrument.
class DenseSampler {
 public:
  explicit DenseSampler(const MetricsRegistry& registry)
      : registry_(&registry) {}

  void sample_now(sim::SimTime now) {
    DenseRow row;
    row.time = now;
    row.gauge_count = registry_->gauges().size();
    row.values.reserve(row.gauge_count + registry_->counters().size());
    for (const auto& g : registry_->gauges()) {
      row.values.push_back(g.cell.value());
    }
    for (const auto& c : registry_->counters()) {
      row.values.push_back(static_cast<double>(c.cell.value()));
    }
    rows_.push_back(std::move(row));
  }
  [[nodiscard]] const std::vector<DenseRow>& rows() const { return rows_; }

 private:
  const MetricsRegistry* registry_;
  std::vector<DenseRow> rows_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Rebuilds dense rows from the sampler's change log by carrying values
/// forward. Every logged change must be a new column (the next one in its
/// list) or a new bit pattern, so the log holds nothing redundant.
std::vector<DenseRow> rebuild_rows(const Sampler& sampler) {
  std::vector<DenseRow> out;
  std::vector<double> gauges;
  std::vector<double> counters;
  for (std::size_t r = 0; r < sampler.rows(); ++r) {
    const auto columns = sampler.changed_columns(r);
    const auto values = sampler.changed_values(r);
    EXPECT_EQ(columns.size(), values.size());
    for (std::size_t i = 0; i < columns.size(); ++i) {
      const bool counter = (columns[i] & Sampler::kCounterColumn) != 0;
      std::vector<double>& list = counter ? counters : gauges;
      const std::size_t at = columns[i] & ~Sampler::kCounterColumn;
      if (at < list.size()) {
        EXPECT_NE(bits(list[at]), bits(values[i]))
            << "row " << r << " logs an unchanged column";
        list[at] = values[i];
      } else {
        EXPECT_EQ(at, list.size()) << "row " << r << " skips a column";
        list.push_back(values[i]);
      }
    }
    DenseRow row;
    row.time = sampler.row_time(r);
    row.gauge_count = gauges.size();
    row.values = gauges;
    row.values.insert(row.values.end(), counters.begin(), counters.end());
    out.push_back(std::move(row));
  }
  return out;
}

/// Expects two dense row lists to be equal bit for bit.
void expect_rows_equal(const std::vector<DenseRow>& got,
                       const std::vector<DenseRow>& oracle) {
  ASSERT_EQ(got.size(), oracle.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].time, oracle[k].time) << "row " << k;
    EXPECT_EQ(got[k].gauge_count, oracle[k].gauge_count) << "row " << k;
    ASSERT_EQ(got[k].values.size(), oracle[k].values.size()) << "row " << k;
    for (std::size_t i = 0; i < got[k].values.size(); ++i) {
      EXPECT_EQ(bits(got[k].values[i]), bits(oracle[k].values[i]))
          << "row " << k << " column " << i;
    }
  }
}

/// Reads a changed-values JSONL series the way docs/observability.md
/// describes — carry every key forward, line by line — and expects the
/// state after line k to hold exactly oracle row k's columns, keyed by full
/// name, with every value and `t_ms` equal bit for bit.
void expect_series_rebuilds(const std::string& jsonl,
                            const std::vector<DenseRow>& oracle,
                            const MetricsRegistry& registry) {
  std::vector<std::string> gauge_names;
  for (const auto& row : registry.gauges()) {
    gauge_names.push_back(MetricsRegistry::full_name(row.name, row.labels));
  }
  std::vector<std::string> counter_names;
  for (const auto& row : registry.counters()) {
    counter_names.push_back(MetricsRegistry::full_name(row.name, row.labels));
  }

  std::istringstream in(jsonl);
  std::map<std::string, double> state;
  std::string line;
  std::size_t k = 0;
  for (; std::getline(in, line); ++k) {
    ASSERT_LT(k, oracle.size()) << "more lines than rows";
    for (auto& [key, value] : parse_flat_json(line)) state[key] = value;
    const DenseRow& row = oracle[k];
    ASSERT_EQ(state.size(), 1 + row.values.size()) << "line " << k;
    EXPECT_EQ(bits(state["t_ms"]), bits(sim::to_ms(row.time)))
        << "line " << k;
    for (std::size_t i = 0; i < row.values.size(); ++i) {
      const std::string& name = i < row.gauge_count
                                    ? gauge_names[i]
                                    : counter_names[i - row.gauge_count];
      auto it = state.find(name);
      ASSERT_NE(it, state.end()) << name << " missing at line " << k;
      EXPECT_EQ(bits(it->second), bits(row.values[i]))
          << name << " at line " << k;
    }
  }
  EXPECT_EQ(k, oracle.size());
}

/// A 25-app Stress sequence on the two-board cluster under crash, flap and
/// SEU hazards plus a scripted crash of board 0 at 1 s.
struct FaultedCluster {
  std::vector<apps::AppSpec> suite = apps::make_suite(fpga::BoardParams{});
  workload::Sequence seq;
  cluster::ClusterOptions options;

  FaultedCluster() {
    workload::WorkloadConfig config;
    config.congestion = workload::Congestion::kStress;
    config.apps_per_sequence = 25;
    util::Rng rng(2025);
    seq = workload::generate_sequence(config, rng);
    options.faults.seed = 77;
    options.faults.hazards.board_crash_per_s = 0.05;
    options.faults.hazards.link_flap_per_s = 0.05;
    options.faults.hazards.slot_seu_per_s = 0.1;
    options.faults.horizon = sim::seconds(60.0);
    options.faults.timeline.push_back(
        {sim::seconds(1.0), faults::FaultKind::kBoardCrash, 0, -1});
  }

  /// Runs the cluster with `telemetry` bound, and has `oracle` sample
  /// right after each of the real sampler's ticks, in the same instant:
  /// the simulation is stepped, and no event runs between the two.
  void run_sampled(Telemetry& telemetry, DenseSampler& oracle) const {
    cluster::ClusterOptions sampled = options;
    sampled.metrics = &telemetry.registry();
    sim::Simulator sim;
    cluster::Cluster cluster(sim, suite, sampled);
    telemetry.start_sampling(sim);
    cluster.submit_sequence(seq);
    while (sim.step()) {
      if (telemetry.sampler().rows() > oracle.rows().size()) {
        oracle.sample_now(sim.now());
      }
    }
    ASSERT_GT(cluster.recovery_stats().boards_crashed, 0);
  }
};

// ----------------------------------------------------------------- registry

TEST(MetricsRegistry, RegistrationIsIdempotentWithStableCells) {
  MetricsRegistry registry;
  Counter& a = registry.counter("vs_ops_total", {{"board", "fpga0"}});
  a.add(3);
  Counter& b = registry.counter("vs_ops_total", {{"board", "fpga0"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3);
  // Different labels are a different cell.
  Counter& c = registry.counter("vs_ops_total", {{"board", "fpga1"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(registry.counters().size(), 2u);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistry, FullNameFollowsPrometheusConventions) {
  EXPECT_EQ(MetricsRegistry::full_name("vs_x_total", {}), "vs_x_total");
  EXPECT_EQ(MetricsRegistry::full_name(
                "vs_x_total", {{"board", "fpga0"}, {"state", "Free"}}),
            "vs_x_total{board=\"fpga0\",state=\"Free\"}");
}

TEST(MetricsHandles, NullHandlesAreNoOps) {
  CounterHandle c;
  GaugeHandle g;
  HistogramHandle h;
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_FALSE(static_cast<bool>(g));
  EXPECT_FALSE(static_cast<bool>(h));
  c.add();        // must not crash
  g.set(1.0);
  g.add(2.0);
  h.observe(3.0);
}

TEST(MetricsHandles, BoundHandlesUpdateTheirCell) {
  MetricsRegistry registry;
  CounterHandle c(&registry.counter("vs_n_total"));
  GaugeHandle g(&registry.gauge("vs_g"));
  HistogramHandle h(&registry.histogram("vs_h_ms", {1.0, 10.0}));
  EXPECT_TRUE(static_cast<bool>(c));
  c.add(5);
  g.set(2.0);
  g.add(0.5);
  h.observe(4.0);
  // Registering again resolves the cells the handles updated.
  EXPECT_EQ(registry.counter("vs_n_total").value(), 5);
  EXPECT_DOUBLE_EQ(registry.gauge("vs_g").value(), 2.5);
  EXPECT_EQ(registry.histogram("vs_h_ms", {}).count(), 1u);
  EXPECT_EQ(registry.size(), 3u);
}

// ---------------------------------------------------------------- histogram

TEST(Histogram, BucketsFollowLeSemantics) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(1.0);  // == bound -> that bucket (le semantics)
  h.observe(2.5);
  h.observe(9.0);  // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 0u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 12.5);
  EXPECT_DOUBLE_EQ(h.mean(), 12.5 / 3.0);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
}

TEST(Histogram, QuantileInterpolatesAndClampsToMax) {
  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  Histogram h({10.0, 20.0});
  for (int i = 0; i < 8; ++i) h.observe(5.0);
  h.observe(15.0);
  h.observe(99.0);  // overflow
  // p50 lands inside the first bucket (0..10].
  double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, 10.0);
  // p99/p100 land in the overflow bucket and resolve to the observed max.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 99.0);
}

TEST(Histogram, DefaultMsBoundsAreAscending) {
  auto bounds = default_ms_bounds();
  ASSERT_GE(bounds.size(), 2u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// ---------------------------------------------------------------- exporters

TEST(PrometheusExport, LinesParseAndHistogramSeriesAreConsistent) {
  MetricsRegistry registry;
  registry.counter("vs_ops_total", {{"board", "fpga0"}}).add(7);
  registry.counter("vs_ops_total", {{"board", "fpga1"}}).add(2);
  registry.gauge("vs_depth").set(3.5);
  Histogram& h = registry.histogram("vs_lat_ms", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);

  std::ostringstream prom;
  write_prometheus(registry, prom);
  const std::string text = prom.str();
  // Every non-comment line must be `name{labels} value` with a numeric
  // value; `# TYPE` appears exactly once per metric name.
  std::regex sample_re(
      R"(^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? -?[0-9.+eEinf]+$)");
  int type_ops = 0, bucket_lines = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE", 0) == 0) {
      if (line.find(" vs_ops_total ") != std::string::npos) ++type_ops;
      continue;
    }
    EXPECT_TRUE(std::regex_match(line, sample_re)) << line;
    if (line.rfind("vs_lat_ms_bucket", 0) == 0) ++bucket_lines;
  }
  EXPECT_EQ(type_ops, 1);
  EXPECT_EQ(bucket_lines, 3);  // le="1", le="10", le="+Inf"
  EXPECT_NE(text.find("vs_ops_total{board=\"fpga0\"} 7"), std::string::npos);
  EXPECT_NE(text.find("vs_depth 3.5"), std::string::npos);
  // The +Inf bucket is cumulative == _count.
  EXPECT_NE(text.find("vs_lat_ms_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("vs_lat_ms_count 3"), std::string::npos);
}

TEST(JsonlExport, SnapshotsRoundTripIncludingNarrowEarlyRows) {
  MetricsRegistry registry;
  Sampler sampler(registry, sim::ms(10));
  DenseSampler oracle(registry);
  auto sample = [&](sim::SimTime t) {
    sampler.sample_now(t);
    oracle.sample_now(t);
  };
  Gauge& g = registry.gauge("vs_g", {{"board", "fpga0"}});
  g.set(1.5);
  sample(sim::ms(10));  // narrow: one gauge, no counters
  Counter& c = registry.counter("vs_c_total");
  c.add(4);
  Gauge& h = registry.gauge("vs_h");
  g.set(2.5);
  sample(sim::ms(20));  // wide: two gauges + counter
  sample(sim::ms(30));  // nothing changed
  h.set(-0.0);
  sample(sim::ms(40));  // 0.0 -> -0.0: equal, not the same bits
  c.add(1);
  sample(sim::ms(50.5));

  expect_rows_equal(rebuild_rows(sampler), oracle.rows());
  std::ostringstream series;
  write_timeseries_jsonl(sampler, registry, series);
  expect_series_rebuilds(series.str(), oracle.rows(), registry);

  // The first line carries every column; later lines only what changed,
  // with a new column on the line of its first sample.
  EXPECT_EQ(series.str(),
            "{\"t_ms\":10,\"vs_g{board=\\\"fpga0\\\"}\":1.5}\n"
            "{\"t_ms\":20,\"vs_g{board=\\\"fpga0\\\"}\":2.5,\"vs_h\":0,"
            "\"vs_c_total\":4}\n"
            "{\"t_ms\":30}\n"
            "{\"t_ms\":40,\"vs_h\":-0}\n"
            "{\"t_ms\":50.5,\"vs_c_total\":5}\n");
}

TEST(JsonlExport, FaultedClusterSeriesRebuildsEverySnapshot) {
  // Every row and column of a telemetry-on faulted cluster run rebuilds
  // exactly from the changed-values lines, including the rows that widen
  // when instruments register mid-run.
  FaultedCluster run;
  Telemetry telemetry;
  DenseSampler oracle(telemetry.registry());
  run.run_sampled(telemetry, oracle);
  const std::vector<DenseRow>& rows = oracle.rows();
  ASSERT_GT(rows.size(), 10u);
  ASSERT_LT(rows.front().values.size(), rows.back().values.size());

  std::ostringstream series;
  write_timeseries_jsonl(telemetry.sampler(), telemetry.registry(), series);
  expect_series_rebuilds(series.str(), rows, telemetry.registry());
}

TEST(RunReportExport, ContainsConfigEchoAndHistogramPercentiles) {
  MetricsRegistry registry;
  registry.counter("vs_ops_total").add(11);
  registry.histogram("vs_lat_ms", {1.0, 10.0}).observe(5.0);
  RunInfo info;
  info.experiment = "unit";
  info.config = {{"seed", "2025"}, {"note", "a\"b\\c"}};

  std::ostringstream report;
  write_run_report(registry, info, nullptr, report);
  const std::string json = report.str();
  // Structural sanity: balanced braces/brackets.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++braces;
    else if (c == '}') --braces;
    else if (c == '[') ++brackets;
    else if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"experiment\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": \"2025\""), std::string::npos);
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
  EXPECT_NE(json.find("vs_ops_total"), std::string::npos);
  for (const char* key : {"\"count\":", "\"p50\":", "\"p95\":", "\"p99\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Dashboard, RendersEverySection) {
  MetricsRegistry registry;
  registry.counter("vs_ops_total", {{"board", "fpga0"}}).add(42);
  registry.gauge("vs_depth").set(2.0);
  Histogram& h = registry.histogram("vs_lat_ms", default_ms_bounds());
  for (int i = 0; i < 100; ++i) h.observe(static_cast<double>(i));
  std::string dash = format_dashboard(registry, "unit test");
  EXPECT_NE(dash.find("unit test"), std::string::npos);
  EXPECT_NE(dash.find("vs_ops_total{board=\"fpga0\"}"), std::string::npos);
  EXPECT_NE(dash.find("42"), std::string::npos);
  EXPECT_NE(dash.find("vs_depth"), std::string::npos);
  EXPECT_NE(dash.find("vs_lat_ms"), std::string::npos);
}

// ------------------------------------------------------------------ sampler

TEST(Sampler, TicksAtFixedCadenceAndLetsTheSimulatorDrain) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("vs_g");
  Sampler sampler(registry, sim::ms(50));
  sim::Simulator sim;
  sim.schedule(sim::ms(10), [&] { g.set(1.0); });
  sim.schedule(sim::ms(220), [&] { g.set(2.0); });
  sampler.start(sim);
  sim.run();
  EXPECT_TRUE(sim.idle());  // the sampler must not keep the queue alive

  // Ticks at 50/100/150/200 while the 220 ms event is pending, then one
  // final tick at 250 that finds the queue idle and does not re-arm.
  ASSERT_EQ(sampler.rows(), 5u);
  const std::vector<DenseRow> rows = rebuild_rows(sampler);
  ASSERT_EQ(rows.size(), 5u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].time, sim::ms(50) * static_cast<sim::SimTime>(i + 1));
    ASSERT_EQ(rows[i].gauge_count, 1u);
    ASSERT_EQ(rows[i].values.size(), 1u);
  }
  EXPECT_DOUBLE_EQ(rows[0].values[0], 1.0);   // after the 10 ms event
  EXPECT_DOUBLE_EQ(rows[4].values[0], 2.0);   // after the 220 ms event
  // The log holds the gauge's two values and nothing else.
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(sampler.changed_columns(i).empty()) << "row " << i;
  }
  ASSERT_EQ(sampler.changed_columns(0).size(), 1u);
  ASSERT_EQ(sampler.changed_columns(4).size(), 1u);
}

TEST(SamplerChangeLog, FaultedClusterRowsRebuildTheDenseOracle) {
  // The dense oracle samples in the same instant as every real tick; each
  // of its rows — columns registered mid-run included — must rebuild bit
  // for bit from the change log.
  FaultedCluster run;
  Telemetry telemetry;
  DenseSampler oracle(telemetry.registry());
  run.run_sampled(telemetry, oracle);
  ASSERT_GT(oracle.rows().size(), 10u);
  ASSERT_LT(oracle.rows().front().values.size(),
            oracle.rows().back().values.size());
  expect_rows_equal(rebuild_rows(telemetry.sampler()), oracle.rows());
}

TEST(SamplerChangeLog, SignedZeroAndLateColumnsAreChanges) {
  MetricsRegistry registry;
  Sampler sampler(registry, sim::ms(10));
  Gauge& g = registry.gauge("vs_g");
  sampler.sample_now(sim::ms(10));  // first row: the new column, value 0
  g.set(-0.0);
  sampler.sample_now(sim::ms(20));  // -0.0 has other bits than 0.0
  g.set(-0.0);
  sampler.sample_now(sim::ms(30));  // same bits: no change
  registry.counter("vs_c_total");
  g.set(0.0);
  sampler.sample_now(sim::ms(40));  // back to +0.0, and a late counter at 0
  ASSERT_EQ(sampler.rows(), 4u);
  auto columns = [&](std::size_t r) {
    auto c = sampler.changed_columns(r);
    return std::vector<std::uint32_t>(c.begin(), c.end());
  };
  EXPECT_EQ(columns(0), std::vector<std::uint32_t>{0});
  EXPECT_EQ(columns(1), std::vector<std::uint32_t>{0});
  EXPECT_TRUE(columns(2).empty());
  EXPECT_EQ(columns(3),
            (std::vector<std::uint32_t>{0, Sampler::kCounterColumn | 0}));
  EXPECT_TRUE(std::signbit(sampler.changed_values(1)[0]));
  EXPECT_FALSE(std::signbit(sampler.changed_values(3)[0]));
}

// ------------------------------------------------------ capture golden

/// FNV-1a, 64-bit.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CaptureGolden, FaultedCheckpointedClusterFilesKeepTheirBytes) {
  // All five capture files of a faulted cluster run with delta
  // checkpoints, pre-copy migration and phase accounting, pinned by
  // digest. The constants are the digests of the files written before
  // spans, flows, journal records and sampler rows became compact records
  // (with the trace's always-zero "vs_dropped_spans" lines removed), so
  // the record layouts are proven not to change a byte. The series digest
  // was re-pinned once since, when a slot began executing at its item's
  // DMA kick rather than when the input landed: 8 of its 1159 rows sample
  // inside a DMA-in window, and each moves one fpga-OL0 slot from
  // "configured" to "executing" in vs_slot_state_count. The trace digest
  // was re-pinned once, when every crash-detection batch's flow began to
  // end: three crashes of empty boards each gained one "f" record named
  // "nothing displaced"; no other record moved. It was re-pinned again
  // when every migration flow began to end at its landing: the pre-copy
  // switch that landed at t = 22.06 s with no app to resume gained an "f"
  // record named "landed, nothing resumed" on the coordinator's
  // "migration" lane, plus that lane's thread_name record; no other record
  // moved. The same run is captured twice: wired by hand to the exporters,
  // and through the CLIs' metrics::Capture writing real files.
  FaultedCluster run;
  cluster::ClusterOptions options = run.options;
  options.checkpoint.enabled = true;
  options.checkpoint.delta = true;
  options.migration.precopy = true;
  // .prom, .jsonl, .report.json, Chrome trace, journal.
  auto expect_golden = [](const std::vector<std::string>& files) {
    const std::uint64_t golden[] = {
        0x17d1b4ac69936b7full, 0xdfd774d5fc41563cull, 0x863dcf6349d9397bull,
        0xc2957312edbcc1d2ull, 0x4c42e79491d0e25eull};
    ASSERT_EQ(files.size(), std::size(golden));
    for (std::size_t i = 0; i < files.size(); ++i) {
      EXPECT_EQ(fnv1a(files[i]), golden[i]) << "file " << i;
    }
  };

  {
    SCOPED_TRACE("exporters");
    cluster::ClusterOptions wired = options;
    wired.phase_accounting = true;
    ClusterTraceHub hub;
    hub.enable_trace();
    hub.enable_journal();
    wired.hub = &hub;
    Telemetry telemetry;
    metrics::ClusterRunResult r = metrics::run_cluster(
        run.suite, run.seq, wired, sim::seconds(36000.0), &telemetry);
    ASSERT_EQ(r.recovery.boards_crashed, 5);
    ASSERT_EQ(r.switches.size(), 3u);
    std::ostringstream prom;
    write_prometheus(telemetry.registry(), prom);
    std::ostringstream series;
    write_timeseries_jsonl(telemetry.sampler(), telemetry.registry(), series);
    std::ostringstream report;
    write_run_report(telemetry.registry(), telemetry.info(),
                     &telemetry.sampler(), report);
    std::ostringstream trace;
    hub.write_chrome_trace(trace);
    std::ostringstream journal;
    hub.write_journal(journal);
    expect_golden({prom.str(), series.str(), report.str(), trace.str(),
                   journal.str()});
  }
  {
    SCOPED_TRACE("metrics::Capture");
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(testing::TempDir()) / "vs_capture_golden";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string prefix = (dir / "m").string();
    const std::string trace = (dir / "trace.json").string();
    const std::string journal = (dir / "journal.jsonl").string();
    const char* argv[] = {"prog",         "--metrics-out", prefix.c_str(),
                          "--trace-out",  trace.c_str(),   "--journal-out",
                          journal.c_str()};
    metrics::Capture capture(
        util::CliArgs(7, argv, {metrics::Capture::kFlags}));
    cluster::ClusterOptions wired = options;
    capture.attach(wired);
    metrics::ClusterRunResult r = metrics::run_cluster(
        run.suite, run.seq, wired, sim::seconds(36000.0),
        capture.telemetry());
    ASSERT_EQ(r.recovery.boards_crashed, 5);
    testing::internal::CaptureStdout();
    capture.write({});
    EXPECT_EQ(testing::internal::GetCapturedStdout(),
              "Telemetry written to " + prefix +
                  ".{prom,jsonl,report.json}\nChrome trace written to " +
                  trace + "\nRun journal written to " + journal + "\n");
    expect_golden({read_file(prefix + ".prom"), read_file(prefix + ".jsonl"),
                   read_file(prefix + ".report.json"), read_file(trace),
                   read_file(journal)});
    fs::remove_all(dir);
  }
}

TEST(Capture, EachOutputAttachesOnlyItself) {
  using Path = const std::string& (metrics::Capture::*)() const;
  struct Output {
    const char* flag;
    const char* env;
    Path path;
  };
  const Output outputs[] = {
      {"--metrics-out", "VS_METRICS", &metrics::Capture::metrics_out},
      {"--trace-out", "VS_TRACE", &metrics::Capture::trace_out},
      {"--journal-out", "VS_JOURNAL", &metrics::Capture::journal_out},
  };
  for (const Output& o : outputs) ::unsetenv(o.env);

  // Nothing requested: no telemetry bound, no hub attached, and the
  // options keep their instrument-free defaults.
  const char* bare[] = {"prog"};
  const util::CliArgs no_flags(1, bare, {metrics::Capture::kFlags});
  {
    metrics::Capture capture(no_flags);
    EXPECT_FALSE(capture.requested());
    EXPECT_EQ(capture.telemetry(), nullptr);
    metrics::RunOptions single;
    capture.attach(single);
    EXPECT_EQ(single.telemetry, nullptr);
    EXPECT_EQ(single.hub, nullptr);
    EXPECT_FALSE(single.phase_accounting);
    cluster::ClusterOptions cluster;
    capture.attach(cluster);
    EXPECT_EQ(cluster.hub, nullptr);
    EXPECT_FALSE(cluster.phase_accounting);
  }

  for (const Output& o : outputs) {
    SCOPED_TRACE(o.flag);
    const char* flagged[] = {"prog", o.flag, "fromflag"};
    const util::CliArgs with_flag(3, flagged, {metrics::Capture::kFlags});

    // Requested alone, each output attaches its own instrument only.
    metrics::Capture capture(with_flag);
    EXPECT_TRUE(capture.requested());
    for (const Output& other : outputs) {
      EXPECT_EQ((capture.*other.path)(), &other == &o ? "fromflag" : "");
    }
    const bool metrics_on = o.path == &metrics::Capture::metrics_out;
    const bool trace_on = o.path == &metrics::Capture::trace_out;
    const bool journal_on = o.path == &metrics::Capture::journal_out;
    metrics::RunOptions single;
    capture.attach(single);
    EXPECT_EQ(single.telemetry != nullptr, metrics_on);
    EXPECT_EQ(single.telemetry, capture.telemetry());
    EXPECT_EQ(single.hub != nullptr, trace_on || journal_on);
    EXPECT_EQ(single.phase_accounting, trace_on || journal_on);
    cluster::ClusterOptions cluster;
    capture.attach(cluster);
    EXPECT_EQ(cluster.hub, single.hub);
    EXPECT_EQ(cluster.phase_accounting, trace_on || journal_on);
    if (single.hub != nullptr) {
      EXPECT_EQ(single.hub->trace_enabled(), trace_on);
      EXPECT_EQ(single.hub->journal_enabled(), journal_on);
    }
  }
}

// --------------------------------------------- determinism + instrumentation

TEST(TelemetryDeterminism, SingleBoardResultsAreBitIdenticalWithMetricsOn) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 15;
  util::Rng rng(2025);
  auto seq = workload::generate_sequence(config, rng);

  metrics::RunResult plain = metrics::run_single_board(
      metrics::SystemKind::kVersaBigLittle, suite, seq);

  obs::Telemetry telemetry;
  metrics::RunOptions opts;
  opts.telemetry = &telemetry;
  metrics::RunResult instrumented = metrics::run_single_board(
      metrics::SystemKind::kVersaBigLittle, suite, seq, opts);

  ASSERT_EQ(instrumented.response_ms.size(), plain.response_ms.size());
  for (std::size_t i = 0; i < plain.response_ms.size(); ++i) {
    EXPECT_EQ(instrumented.response_ms[i], plain.response_ms[i]) << i;
  }
  EXPECT_EQ(instrumented.makespan, plain.makespan);
  EXPECT_EQ(instrumented.completed, plain.completed);
  EXPECT_EQ(instrumented.counters.items_executed,
            plain.counters.items_executed);
  // And the sampler actually ran.
  EXPECT_GT(telemetry.sampler().rows(), 0u);
  // Slot-state gauges partition the board's slots: their sum is a whole
  // number of slots at all times, including at end of run.
  double slots = sum_gauges(telemetry.registry(), "vs_slot_state_count");
  EXPECT_GT(slots, 0.0);
  EXPECT_DOUBLE_EQ(slots, std::floor(slots));
}

TEST(TelemetryDeterminism, ClusterResultsAreBitIdenticalWithMetricsOn) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 30;
  util::Rng rng(2025);
  auto seq = workload::generate_sequence(config, rng);

  metrics::ClusterRunResult plain =
      metrics::run_cluster(suite, seq, cluster::ClusterOptions{});

  obs::Telemetry telemetry;
  metrics::ClusterRunResult instrumented = metrics::run_cluster(
      suite, seq, cluster::ClusterOptions{}, sim::seconds(36000.0),
      &telemetry);

  ASSERT_EQ(instrumented.response_ms.size(), plain.response_ms.size());
  for (std::size_t i = 0; i < plain.response_ms.size(); ++i) {
    EXPECT_EQ(instrumented.response_ms[i], plain.response_ms[i]) << i;
  }
  ASSERT_EQ(instrumented.dswitch_trace.size(), plain.dswitch_trace.size());
  for (std::size_t i = 0; i < plain.dswitch_trace.size(); ++i) {
    EXPECT_EQ(instrumented.dswitch_trace[i].time,
              plain.dswitch_trace[i].time);
    EXPECT_EQ(instrumented.dswitch_trace[i].value,
              plain.dswitch_trace[i].value);
  }
  ASSERT_EQ(instrumented.switches.size(), plain.switches.size());
  for (std::size_t i = 0; i < plain.switches.size(); ++i) {
    EXPECT_EQ(instrumented.switches[i].time, plain.switches[i].time);
    EXPECT_EQ(instrumented.switches[i].overhead, plain.switches[i].overhead);
  }
}

TEST(TelemetryDeterminism, FaultyClusterResultsAreBitIdenticalWithMetricsOn) {
  // Same guarantee under an active fault plane: attaching telemetry to a
  // run with crashes, flaps and SEUs must not perturb a single event.
  FaultedCluster run;
  metrics::ClusterRunResult plain =
      metrics::run_cluster(run.suite, run.seq, run.options);

  obs::Telemetry telemetry;
  metrics::ClusterRunResult instrumented = metrics::run_cluster(
      run.suite, run.seq, run.options, sim::seconds(36000.0), &telemetry);

  ASSERT_GT(plain.recovery.boards_crashed, 0);
  ASSERT_EQ(instrumented.response_ms.size(), plain.response_ms.size());
  for (std::size_t i = 0; i < plain.response_ms.size(); ++i) {
    EXPECT_EQ(instrumented.response_ms[i], plain.response_ms[i]) << i;
  }
  EXPECT_EQ(instrumented.recovery.boards_crashed,
            plain.recovery.boards_crashed);
  EXPECT_EQ(instrumented.recovery.boards_rebooted,
            plain.recovery.boards_rebooted);
  EXPECT_EQ(instrumented.recovery.link_flaps, plain.recovery.link_flaps);
  EXPECT_EQ(instrumented.recovery.slot_seus, plain.recovery.slot_seus);
  EXPECT_EQ(instrumented.recovery.apps_evacuated,
            plain.recovery.apps_evacuated);
  EXPECT_EQ(instrumented.recovery.apps_restarted,
            plain.recovery.apps_restarted);
  EXPECT_EQ(instrumented.recovery.mttr_total, plain.recovery.mttr_total);
  EXPECT_EQ(instrumented.availability, plain.availability);
  // The fault instruments resolved and counted.
  EXPECT_GT(sum_counters(telemetry.registry(), "vs_faults_injected_total"),
            0);
}

TEST(TelemetryInstrumentation, ClusterRunPopulatesAllInstrumentFamilies) {
  // The fig5 stress cell: every instrument family — PCAP, cores, slots,
  // D_switch policy loop, Aurora link — must end the run non-zero
  // (acceptance criterion for the run report).
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 50;
  util::Rng rng(2025);
  auto seq = workload::generate_sequence(config, rng);

  obs::Telemetry telemetry;
  auto result = metrics::run_cluster(suite, seq, cluster::ClusterOptions{},
                                     sim::seconds(36000.0), &telemetry);
  ASSERT_GT(result.completed, 0);
  ASSERT_FALSE(result.switches.empty());  // guarantees Aurora traffic

  const MetricsRegistry& registry = telemetry.registry();
  EXPECT_GT(sum_counters(registry, "vs_pcap_loads_total"), 0);
  EXPECT_GT(sum_counters(registry, "vs_pcap_bytes_loaded_total"), 0);
  EXPECT_GT(sum_counters(registry, "vs_core_ops_total"), 0);
  EXPECT_GT(sum_counters(registry, "vs_runtime_items_total"), 0);
  EXPECT_GT(sum_counters(registry, "vs_dswitch_evaluations_total"), 0);
  EXPECT_GT(sum_counters(registry, "vs_dswitch_switches_total"), 0);
  EXPECT_GT(sum_counters(registry, "vs_aurora_transfers_total"), 0);
  EXPECT_GT(sum_counters(registry, "vs_aurora_bytes_total"), 0);
  bool slot_gauges = false;
  for (const auto& row : registry.gauges()) {
    if (row.name == "vs_slot_state_count") slot_gauges = true;
  }
  EXPECT_TRUE(slot_gauges);

  // The run report surfaces all of them.
  std::ostringstream out;
  write_run_report(registry, telemetry.info(), &telemetry.sampler(), out);
  const std::string report = out.str();
  for (const char* name :
       {"vs_pcap_loads_total", "vs_core_ops_total", "vs_slot_state_count",
        "vs_dswitch_evaluations_total", "vs_aurora_transfers_total"}) {
    EXPECT_NE(report.find(name), std::string::npos) << name;
  }
}

TEST(Telemetry, WriteOutputsThrowsOnUnopenablePath) {
  Telemetry telemetry;
  EXPECT_THROW(telemetry.write_outputs("/nonexistent-dir/metrics"),
               std::runtime_error);
}

TEST(Telemetry, WriteOutputsThrowsWhenAWriteFails) {
  namespace fs = std::filesystem;
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  // <prefix>.prom opens fine but every write to it fails (ENOSPC).
  const fs::path dir = fs::path(testing::TempDir()) / "vs_metrics_dev_full";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::create_symlink("/dev/full", dir / "m.prom");
  Telemetry telemetry;
  telemetry.registry().counter("vs_ops_total").add(1);
  const std::string prefix = (dir / "m").string();
  try {
    telemetry.write_outputs(prefix);
    ADD_FAILURE() << "write_outputs returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(prefix + ".prom"),
              std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}


TEST(Telemetry, ResolveMetricsOutPrefersFlagThenEnv) {
  const char* argv[] = {"prog", "--metrics-out", "fromflag"};
  util::CliArgs args(3, argv, {metrics::Capture::kFlags});
  ::setenv("VS_METRICS", "fromenv", 1);
  EXPECT_EQ(metrics::Capture(args).metrics_out(), "fromflag");
  util::CliArgs no_flag(1, argv, {metrics::Capture::kFlags});
  EXPECT_EQ(metrics::Capture(no_flag).metrics_out(), "fromenv");
  const char* emptied[] = {"prog", "--metrics-out="};
  util::CliArgs empty_flag(2, emptied, {metrics::Capture::kFlags});
  EXPECT_EQ(metrics::Capture(empty_flag).metrics_out(), "");
  ::setenv("VS_METRICS", "", 1);
  EXPECT_FALSE(metrics::Capture(no_flag).requested());
  ::unsetenv("VS_METRICS");
  EXPECT_EQ(metrics::Capture(no_flag).metrics_out(), "");
  EXPECT_FALSE(metrics::Capture(no_flag).requested());
}

}  // namespace
}  // namespace vs::obs
