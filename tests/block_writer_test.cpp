// BlockWriter's number formatting against std::to_chars, the format every
// exporter promises: num_scaled(n, scale) must write exactly
// to_chars(double(n) / 10^scale), and num(double) exactly to_chars(v),
// whichever path (integer digits or to_chars) each value takes. Also
// write_file's contract: the file holds exactly what was written, whether
// it existed before or not.
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/block_writer.h"

namespace vs::obs {
namespace {

constexpr double kPow10[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6};

void append_to_chars(std::string& out, double v) {
  char b[64];
  out.append(b, std::to_chars(b, b + sizeof b, v).ptr);
}

/// SplitMix64: a fast, well-mixed 64-bit stream.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t operator()() noexcept {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

/// One value to write: num_scaled(n, scale), or num(v) when scale < 0.
struct Case {
  std::int64_t n = 0;
  int scale = 0;
  double v = 0.0;
};

/// Writes every case through one BlockWriter, one per line, and expects the
/// text to equal to_chars' line for line. Returns the mismatch count.
std::size_t check_batch(const std::vector<Case>& cases) {
  std::ostringstream out;
  std::string expected;
  {
    BlockWriter w(out);
    for (const Case& c : cases) {
      if (c.scale < 0) {
        w.num(c.v);
        append_to_chars(expected, c.v);
      } else {
        w.num_scaled(c.n, c.scale);
        append_to_chars(expected,
                        static_cast<double>(c.n) / kPow10[c.scale]);
      }
      w.raw("\n");
      expected += '\n';
    }
  }
  const std::string got = out.str();
  if (got == expected) return 0;
  std::istringstream got_in(got);
  std::istringstream want_in(expected);
  std::string g, e;
  std::size_t mismatches = 0;
  for (const Case& c : cases) {
    std::getline(got_in, g);
    std::getline(want_in, e);
    if (g == e) continue;
    if (++mismatches <= 10) {
      ADD_FAILURE() << "n " << c.n << " scale " << c.scale << " v " << c.v
                    << ": wrote " << g << ", to_chars " << e;
    }
  }
  return mismatches;
}

std::int64_t pow10i(int d) {
  std::int64_t p = 1;
  for (int i = 0; i < d; ++i) p *= 10;
  return p;
}

/// Checks `count` cases drawn from `next` in batches small enough to keep
/// memory flat; returns the mismatch count.
template <typename Next>
std::size_t check_generated(std::size_t count, Next next) {
  constexpr std::size_t kBatch = 8192;
  std::vector<Case> batch;
  batch.reserve(kBatch);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(next());
    if (batch.size() == kBatch || i + 1 == count) {
      mismatches += check_batch(batch);
      batch.clear();
    }
  }
  return mismatches;
}

TEST(BlockWriterNumbers, ScaledIntegersMatchToChars) {
  // 10^7 values over every decimal magnitude from 1 to past 10^18 (the
  // exact path ends at 10^15), both signs, and round numbers with many
  // trailing zeros, which to_chars prints in e-notation.
  SplitMix64 rng{2025};
  auto next = [&rng] {
    std::int64_t n = 0;
    if (rng() % 4 == 0) {
      // m * 10^z with a short mantissa: 1..999 followed by zeros.
      const int z = static_cast<int>(rng() % 16);
      n = static_cast<std::int64_t>(1 + rng() % 999) * pow10i(z);
    } else {
      const int digits = static_cast<int>(rng() % 19);  // n ~ 10^digits
      const std::int64_t lo = pow10i(digits);
      const std::uint64_t span =
          digits == 18 ? static_cast<std::uint64_t>(
                             std::numeric_limits<std::int64_t>::max() - lo)
                       : static_cast<std::uint64_t>(9 * lo);
      n = lo + static_cast<std::int64_t>(rng() % span);
    }
    if (rng() % 2 == 0) n = -n;
    if (rng() % 64 == 0) n = 0;
    constexpr int kScales[] = {0, 3, 6};
    return Case{n, kScales[rng() % 3], 0.0};
  };
  EXPECT_EQ(check_generated(10'000'000, next), 0u);
}

TEST(BlockWriterNumbers, DoublesMatchToChars) {
  // The edges of the exact range and of double, then integral doubles (the
  // digit path), the same values shifted off the integers, and arbitrary
  // bit patterns.
  std::vector<Case> edges;
  for (double v : {0.0, -0.0, 1.0, -1.0, 1e15 - 1, -(1e15 - 1), 1e15, -1e15,
                   9007199254740992.0, 1e22, 123000000.0, 100000.0, 10000.0,
                   0.5, -2.5e-7, std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::max()}) {
    edges.push_back(Case{0, -1, v});
  }
  EXPECT_EQ(check_batch(edges), 0u);

  SplitMix64 rng{7};
  auto next = [&rng] {
    const int digits = static_cast<int>(rng() % 17);
    double v = static_cast<double>(
        pow10i(digits) +
        static_cast<std::int64_t>(
            rng() % static_cast<std::uint64_t>(9 * pow10i(digits))));
    if (rng() % 2 == 0) v = -v;
    switch (rng() % 3) {
      case 0: break;
      case 1: v /= kPow10[rng() % 7]; break;
      default: v = std::bit_cast<double>(rng());
    }
    return Case{0, -1, v};
  };
  EXPECT_EQ(check_generated(3'000'000, next), 0u);
}

TEST(BlockWriterNumbers, NegativeZeroKeepsItsSign) {
  std::ostringstream out;
  {
    BlockWriter w(out);
    w.num(-0.0).raw(" ").num(0.0).raw(" ").num_scaled(0, 6).raw(" ").num(
        -0.25);
  }
  EXPECT_EQ(out.str(), "-0 0 0 -0.25");
}

TEST(BlockWriterNumbers, LongPiecesCrossBlockBoundaries) {
  // Pieces larger than the block and pieces that straddle it come out
  // whole and in order.
  const std::string big(200'000, 'x');
  std::string expected;
  std::ostringstream out;
  {
    BlockWriter w(out);
    for (int i = 0; i < 3; ++i) {
      w.raw("a\"").escaped(big).escaped("q\"\n").num(i).raw(big);
      expected += "a\"" + big + "q\\\"\\n" + std::to_string(i) + big;
    }
  }
  EXPECT_EQ(out.str(), expected);
}

// ---------------------------------------------------------- write_file

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(WriteFile, LeavesExactlyTheNewBytesWhateverWasThere) {
  // A fresh file, then rewrites of an existing one that shrink, grow and
  // empty it: each leaves what the last write wrote, no stale tail.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "vs_write_file";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "capture.jsonl").string();
  for (const std::string& text :
       {std::string(300'000, 'a'), std::string("short\n"),
        std::string(150'000, 'b') + "\n", std::string()}) {
    write_file(path, "test file", [&](std::ostream& out) {
      BlockWriter w(out);
      w.raw(text);
    });
    EXPECT_EQ(slurp(path), text) << text.size() << " bytes";
  }
  // A write that fails after a short prefix leaves none of the long file
  // it replaced.
  write_file(path, "test file", [](std::ostream& out) {
    BlockWriter w(out);
    w.raw(std::string(300'000, 'x'));
  });
  EXPECT_THROW(write_file(path, "test file",
                          [](std::ostream& out) {
                            BlockWriter w(out);
                            w.raw("new\n");
                            throw std::runtime_error("format failed");
                          }),
               std::runtime_error);
  EXPECT_EQ(slurp(path).find('x'), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace vs::obs
