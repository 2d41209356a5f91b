// Unit tests for util: deterministic RNG, statistics, tables, CSV.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace vs::util {
namespace {

// ---------------------------------------------------------------------- Rng

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u32() == b.next_u32());
  EXPECT_LT(same, 4);
}

TEST(Rng, DifferentStreamsDiffer) {
  Rng a(7, 1), b(7, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u32() == b.next_u32());
  EXPECT_LT(same, 4);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent(99);
  Rng c1 = parent.fork("alpha");
  Rng c2 = parent.fork("alpha");
  Rng c3 = parent.fork("beta");
  EXPECT_EQ(c1.next_u64(), c2.next_u64());
  Rng c1b = parent.fork("alpha");
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1b.next_u32() == c3.next_u32());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(123);
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.uniform_int(5, 30);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 30);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(5);
  bool seen[6] = {};
  for (int i = 0; i < 600; ++i) seen[rng.uniform_int(0, 5)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(17, 17), 17);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(77);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRealRange) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform_real(1500.0, 2000.0);
    EXPECT_GE(v, 1500.0);
    EXPECT_LT(v, 2000.0);
  }
}

TEST(Rng, BernoulliProbability) {
  Rng rng(55);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, Fnv1aStable) {
  // Known FNV-1a vector: empty string hashes to the offset basis.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), fnv1a("a"));
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
}

// -------------------------------------------------------------------- Stats

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Percentile, LinearInterpolation) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 10);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 1.0), 40);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.5), 25);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_EQ(percentile_sorted({}, 0.5), 0.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile_sorted({7.0}, 0.99), 7.0);
}

TEST(Percentile, ClampsQuantile) {
  std::vector<double> v{1, 2, 3};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 2.0), 3.0);
}

TEST(Summarize, Basics) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Summary s = summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 100);
  EXPECT_NEAR(s.p50, 50.5, 0.01);
  EXPECT_NEAR(s.p95, 95.05, 0.01);
  EXPECT_NEAR(s.p99, 99.01, 0.01);
}

TEST(Summarize, Empty) {
  Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

// -------------------------------------------------------------------- Table

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row();
  t.cell("x");
  t.cell("1");
  t.add_row();
  t.cell("longer");
  t.cell("22");
  std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, CellHelpers) {
  Table t({"a", "b", "c"});
  t.add_row();
  t.cell("s");
  t.cell(3.14159, 2);
  t.cell(static_cast<std::int64_t>(42));
  std::string out = t.to_string();
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(1.0, 0), "1");
}

TEST(Table, FmtDuration) {
  EXPECT_EQ(fmt_duration_ns(500), "500 ns");
  EXPECT_EQ(fmt_duration_ns(1500), "1.50 us");
  EXPECT_EQ(fmt_duration_ns(2500000), "2.50 ms");
  EXPECT_EQ(fmt_duration_ns(3000000000LL), "3.000 s");
}

// ---------------------------------------------------------------------- Csv

TEST(Csv, WritesQuotedCells) {
  std::string path = testing::TempDir() + "/vs_csv_test.csv";
  {
    CsvWriter w(path);
    w.header({"a", "b"});
    w.row({"plain", "with,comma"});
    w.begin_row();
    w.field(1.5);
    w.field(static_cast<long long>(7));
    w.end_row();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,\"with,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line.substr(0, 4), "1.50");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv"),
               std::runtime_error);
}

TEST(Csv, CloseThrowsNamingThePathWhenAWriteFails) {
  // /dev/full opens but rejects every write: the buffered rows fail when
  // close() flushes them.
  CsvWriter w("/dev/full");
  w.header({"a", "b"});
  w.row({"1", "2"});
  try {
    w.close();
    FAIL() << "close() did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "CsvWriter: cannot write /dev/full");
  }
}

}  // namespace
}  // namespace vs::util
