// Output plumbing shared by the obs exporters (export.cpp, trace_hub.cpp,
// telemetry.cpp); not part of the obs API.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace vs::obs {

/// Appends the JSON string escaping of `s` (quotes, backslashes, control
/// characters) to `out`.
void append_json_escaped(std::string& out, std::string_view s);

/// One reused output buffer. Records are appended as raw text,
/// JSON-escaped strings and std::to_chars numbers, and the buffer is handed
/// to the stream whenever a finished record takes it past one block, so
/// memory stays bounded however long the run was. The destructor hands over
/// whatever is left; a failed write shows in the stream's state.
class BlockWriter {
 public:
  explicit BlockWriter(std::ostream& out);
  ~BlockWriter();
  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;

  BlockWriter& raw(std::string_view s) {
    buf_.append(s);
    return *this;
  }
  BlockWriter& escaped(std::string_view s) {
    append_json_escaped(buf_, s);
    return *this;
  }
  /// Shortest round-trip decimal, so values parse back exactly.
  BlockWriter& num(double v);
  template <std::integral Int>
  BlockWriter& num(Int v) {
    char b[24];
    buf_.append(b, std::to_chars(b, b + sizeof b, v).ptr);
    return *this;
  }
  /// Call after each complete record: hands a full block to the stream.
  void end_record() {
    if (buf_.size() >= kBlockBytes) flush();
  }

 private:
  void flush();

  static constexpr std::size_t kBlockBytes = 64 * 1024;
  std::ostream& out_;
  std::string buf_;
};

/// Opens `path`, runs `write` on it and closes it. Throws
/// std::runtime_error naming `what` and the path when the file cannot be
/// opened ("cannot open <what> <path>") or any write fails, e.g. on a full
/// disk ("cannot write <what> <path>").
void write_file(const std::string& path, const char* what,
                const std::function<void(std::ostream&)>& write);

}  // namespace vs::obs
