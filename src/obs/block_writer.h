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

/// One reused output buffer of kBlockBytes. Records are appended as raw
/// text, JSON-escaped strings and std::to_chars numbers, and the buffer is
/// handed to the stream whenever the next piece would not fit, so memory
/// stays bounded however long the run was. The destructor hands over
/// whatever is left; a failed write shows in the stream's state.
class BlockWriter {
 public:
  explicit BlockWriter(std::ostream& out);
  ~BlockWriter();
  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;

  BlockWriter& raw(std::string_view s) {
    if (s.size() > kBlockBytes - len_) return raw_large(s);
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
    std::to_chars_result r = std::to_chars(room(kNumBytes), end(), v);
    len_ = static_cast<std::size_t>(r.ptr - buf_.get());
    return *this;
  }
  /// Writes exactly what num(double(n) / 10^scale) writes, for scale 0..6:
  /// an integer count of 10^-scale units, such as nanoseconds printed as
  /// microseconds (scale 3) or milliseconds (scale 6). Below 10^15 in
  /// magnitude it formats the digits of n without floating point.
  BlockWriter& num_scaled(std::int64_t n, int scale);

 private:
  static constexpr std::size_t kBlockBytes = 64 * 1024;
  static constexpr std::size_t kNumBytes = 64;  ///< longest number written

  /// Start of at least `n` free bytes (n <= kBlockBytes), flushing first
  /// when the block has less.
  char* room(std::size_t n) {
    if (n > kBlockBytes - len_) flush();
    return buf_.get() + len_;
  }
  [[nodiscard]] char* end() const noexcept { return buf_.get() + kBlockBytes; }
  BlockWriter& raw_large(std::string_view s);
  void flush();

  std::ostream& out_;
  std::unique_ptr<char[]> buf_;
  std::size_t len_ = 0;
};

/// Opens `path`, runs `write` on it and closes it. Throws
/// std::runtime_error naming `what` and the path when the file cannot be
/// opened ("cannot open <what> <path>") or any write fails, e.g. on a full
/// disk ("cannot write <what> <path>").
void write_file(const std::string& path, const char* what,
                const std::function<void(std::ostream&)>& write);

}  // namespace vs::obs
