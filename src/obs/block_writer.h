// Output plumbing shared by the obs exporters (export.cpp, trace_hub.cpp,
// telemetry.cpp); not part of the obs API.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

namespace vs::obs {

/// Appends the JSON string escaping of `s` (quotes, backslashes, control
/// characters) to `out`.
void append_json_escaped(std::string& out, std::string_view s);

/// One reused output buffer. Records are appended as raw text, JSON-escaped
/// strings and std::to_chars numbers. Given a stream, the writer hands the
/// buffer over whenever the next piece would not fit its kBlockBytes, so
/// memory stays bounded however long the run was; the destructor hands
/// over whatever is left, and a failed write shows in the stream's state.
/// Without a stream the buffer grows to hold everything written since the
/// last clear() (text()), keeping its capacity: the chunk buffers of
/// write_ordered.
class BlockWriter {
 public:
  explicit BlockWriter(std::ostream& out);
  BlockWriter();
  ~BlockWriter();
  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;

  BlockWriter& raw(std::string_view s) {
    if (s.size() > cap_ - len_) return raw_large(s);
    std::memcpy(buf_.get() + len_, s.data(), s.size());
    len_ += s.size();
    return *this;
  }
  /// JSON string escaping of `s`; a string with nothing to escape is
  /// copied in one piece.
  BlockWriter& escaped(std::string_view s);
  /// Shortest round-trip decimal (std::to_chars), so values parse back
  /// exactly. Integral values below 10^15 in magnitude take num_scaled's
  /// exact integer path; -0.0 stays on to_chars.
  BlockWriter& num(double v);
  template <std::integral Int>
  BlockWriter& num(Int v) {
    char* p = room(kNumBytes);  // may move the buffer: before end()
    len_ = static_cast<std::size_t>(std::to_chars(p, end(), v).ptr -
                                    buf_.get());
    return *this;
  }
  /// Writes exactly what num(double(n) / 10^scale) writes, for scale 0..6:
  /// an integer count of 10^-scale units, such as nanoseconds printed as
  /// microseconds (scale 3) or milliseconds (scale 6). Below 10^15 in
  /// magnitude it formats the digits of n without floating point.
  BlockWriter& num_scaled(std::int64_t n, int scale);

  /// The text held in memory (a writer without a stream).
  [[nodiscard]] std::string_view text() const noexcept {
    return {buf_.get(), len_};
  }
  void clear() noexcept { len_ = 0; }

 private:
  static constexpr std::size_t kBlockBytes = 64 * 1024;
  static constexpr std::size_t kNumBytes = 64;  ///< longest number written

  friend void write_ordered(
      BlockWriter& w, std::size_t count, std::size_t per_chunk,
      const std::function<void(std::size_t, std::size_t, BlockWriter&)>&
          format);

  /// Start of at least `n` free bytes (n <= kBlockBytes), flushing or
  /// growing first when the buffer has less.
  char* room(std::size_t n) {
    if (n > cap_ - len_) make_room(n);
    return buf_.get() + len_;
  }
  [[nodiscard]] char* end() const noexcept { return buf_.get() + cap_; }
  BlockWriter& raw_large(std::string_view s);
  void make_room(std::size_t n);
  /// Hands the buffer to the stream (no-op without one).
  void flush();

  std::ostream* out_;  ///< null: the text stays in memory
  std::unique_ptr<char[]> buf_;
  std::size_t cap_ = kBlockBytes;
  std::size_t len_ = 0;
};

/// Writes records [0, count) to `w` exactly as format(0, count, w) would,
/// with the formatting spread over util::resolve_jobs() threads.
/// `format(begin, end, w)` appends records [begin, end) in order and must
/// depend only on its range, since threads call it at once on different
/// ranges. The calling thread and resolve_jobs() - 1 util::ThreadPool
/// workers claim chunks of `per_chunk` records in order and format each
/// into a reused in-memory writer, at most two chunks per thread in
/// flight; the calling thread alone hands each finished chunk to w's
/// stream, strictly in chunk order, and formats one itself while the next
/// to write is not ready. Waits block on condition variables. With one
/// thread or one chunk, this is the single call format(0, count, w).
/// Returns once every worker has stopped; an exception from `format` is
/// rethrown then, and a stream that fails stops the formatting early
/// (write_file reports it).
void write_ordered(
    BlockWriter& w, std::size_t count, std::size_t per_chunk,
    const std::function<void(std::size_t, std::size_t, BlockWriter&)>& format);

/// Opens `path`, runs `write` on it and closes it. Throws
/// std::runtime_error naming `what` and the path when the file cannot be
/// opened ("cannot open <what> <path>") or any write fails, e.g. on a full
/// disk ("cannot write <what> <path>").
void write_file(const std::string& path, const char* what,
                const std::function<void(std::ostream&)>& write);

}  // namespace vs::obs
