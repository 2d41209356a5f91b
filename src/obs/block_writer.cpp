#include "obs/block_writer.h"

#include <fstream>
#include <ostream>
#include <stdexcept>

namespace vs::obs {

void append_json_escaped(std::string& out, std::string_view s) {
  // Runs of characters that need no escaping are appended in one piece.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* esc = nullptr;
    switch (c) {
      case '"': esc = "\\\""; break;
      case '\\': esc = "\\\\"; break;
      case '\n': esc = "\\n"; break;
      case '\r': esc = "\\r"; break;
      case '\t': esc = "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out.append(s, run, i - run);
    run = i + 1;
    if (esc != nullptr) {
      out += esc;
    } else {
      static constexpr char kHex[] = "0123456789abcdef";
      out += "\\u00";
      out += kHex[(c >> 4) & 0xf];
      out += kHex[c & 0xf];
    }
  }
  out.append(s, run);
}

BlockWriter::BlockWriter(std::ostream& out) : out_(out) {
  buf_.reserve(2 * kBlockBytes);
}

BlockWriter::~BlockWriter() { flush(); }

BlockWriter& BlockWriter::num(double v) {
  char b[64];
  auto [end, ec] = std::to_chars(b, b + sizeof b, v);
  if (ec != std::errc{}) return raw("0");
  buf_.append(b, end);
  return *this;
}

void BlockWriter::flush() {
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

void write_file(const std::string& path, const char* what,
                const std::function<void(std::ostream&)>& write) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error(std::string("cannot open ") + what + " " + path);
  }
  write(out);
  // Buffered data reaches the file only at close, so a full device often
  // shows up here rather than during write().
  out.close();
  if (!out) {
    throw std::runtime_error(std::string("cannot write ") + what + " " +
                             path);
  }
}

}  // namespace vs::obs
