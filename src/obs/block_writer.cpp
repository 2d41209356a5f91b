#include "obs/block_writer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <fstream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.h"

namespace vs::obs {

namespace {

/// Calls `sink` on the pieces of `s`'s JSON string escaping in order: runs
/// of characters that need no escaping in one piece each, and an escape
/// sequence for each character that does.
template <typename Sink>
void for_each_escaped_piece(std::string_view s, Sink&& sink) {
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
    if (i > run) sink(s.substr(run, i - run));
    run = i + 1;
    if (esc != nullptr) {
      sink(std::string_view(esc));
    } else {
      static constexpr char kHex[] = "0123456789abcdef";
      const char u[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf],
                        kHex[c & 0xf]};
      sink(std::string_view(u, sizeof u));
    }
  }
  sink(s.substr(run));
}

constexpr double kPow10[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6};
/// Below this magnitude an integer and its decimal point shift have at
/// most 15 significant digits, so that decimal is the shortest string that
/// round-trips its nearest double: num_scaled can print it digit for digit.
constexpr std::int64_t kExactLimit = 1'000'000'000'000'000;

}  // namespace

void append_json_escaped(std::string& out, std::string_view s) {
  for_each_escaped_piece(s, [&out](std::string_view p) { out.append(p); });
}

BlockWriter::BlockWriter(std::ostream& out)
    : out_(&out), buf_(new char[kBlockBytes]) {}

BlockWriter::BlockWriter() : out_(nullptr), buf_(new char[kBlockBytes]) {}

BlockWriter::~BlockWriter() { flush(); }

BlockWriter& BlockWriter::escaped(std::string_view s) {
  for_each_escaped_piece(s, [this](std::string_view p) { raw(p); });
  return *this;
}

BlockWriter& BlockWriter::num(double v) {
  if (v > -1e15 && v < 1e15) {
    const auto n = static_cast<std::int64_t>(v);
    if (static_cast<double>(n) == v && (n != 0 || !std::signbit(v))) {
      return num_scaled(n, 0);
    }
  }
  char* p = room(kNumBytes);  // may move the buffer: before end()
  auto [ptr, ec] = std::to_chars(p, end(), v);
  if (ec != std::errc{}) return raw("0");
  len_ = static_cast<std::size_t>(ptr - buf_.get());
  return *this;
}

BlockWriter& BlockWriter::num_scaled(std::int64_t n, int scale) {
  assert(scale >= 0 && scale <= 6);
  if (n <= -kExactLimit || n >= kExactLimit) {
    return num(static_cast<double>(n) / kPow10[scale]);
  }
  if (n == 0) return raw("0");
  char* p = room(kNumBytes);
  if (n < 0) {
    *p++ = '-';
    n = -n;
  }
  // The value is 0.d1..dk * 10^(x+1) with the significant digits d1..dk of
  // n, trailing zeros stripped; x is its exponent in e-notation.
  char digits[16];
  int k = static_cast<int>(
      std::to_chars(digits, digits + sizeof digits, n).ptr - digits);
  int zeros = 0;
  while (digits[k - 1] == '0') {
    --k;
    ++zeros;
  }
  const int x = k - 1 + zeros - scale;  // |x| <= 14
  // to_chars prints the shorter of the fixed and e-notation forms, and
  // fixed on a tie. The sign is common to both.
  const int fixed_len = x < 0 ? k - x + 1 : (k <= x + 1 ? x + 1 : k + 1);
  const int sci_len = k + (k > 1 ? 1 : 0) + 4;  // "d[.ddd]e+XX"
  const auto put = [&p](const char* from, int count) {
    std::memcpy(p, from, static_cast<std::size_t>(count));
    p += count;
  };
  const auto pad = [&p](int count) {
    std::memset(p, '0', static_cast<std::size_t>(count));
    p += count;
  };
  if (sci_len < fixed_len) {
    *p++ = digits[0];
    if (k > 1) {
      *p++ = '.';
      put(digits + 1, k - 1);
    }
    *p++ = 'e';
    *p++ = x < 0 ? '-' : '+';
    const int ax = x < 0 ? -x : x;
    *p++ = static_cast<char>('0' + ax / 10);
    *p++ = static_cast<char>('0' + ax % 10);
  } else if (x < 0) {  // 0.000ddd
    *p++ = '0';
    *p++ = '.';
    pad(-x - 1);
    put(digits, k);
  } else if (k <= x + 1) {  // ddd000
    put(digits, k);
    pad(x + 1 - k);
  } else {  // dd.ddd
    put(digits, x + 1);
    *p++ = '.';
    put(digits + x + 1, k - x - 1);
  }
  len_ = static_cast<std::size_t>(p - buf_.get());
  return *this;
}

BlockWriter& BlockWriter::raw_large(std::string_view s) {
  if (out_ == nullptr) {
    make_room(s.size());
    return raw(s);
  }
  flush();
  if (s.size() > kBlockBytes) {
    out_->write(s.data(), static_cast<std::streamsize>(s.size()));
    return *this;
  }
  return raw(s);
}

void BlockWriter::make_room(std::size_t n) {
  if (out_ != nullptr) {
    flush();
    return;
  }
  const std::size_t cap = std::max(2 * cap_, len_ + n);
  std::unique_ptr<char[]> grown(new char[cap]);
  std::memcpy(grown.get(), buf_.get(), len_);
  buf_ = std::move(grown);
  cap_ = cap;
}

void BlockWriter::flush() {
  if (out_ == nullptr) return;
  out_->write(buf_.get(), static_cast<std::streamsize>(len_));
  len_ = 0;
}

void write_ordered(
    BlockWriter& w, std::size_t count, std::size_t per_chunk,
    const std::function<void(std::size_t, std::size_t, BlockWriter&)>&
        format) {
  assert(w.out_ != nullptr && per_chunk > 0);
  const std::size_t chunks = (count + per_chunk - 1) / per_chunk;
  const std::size_t threads =
      std::min(static_cast<std::size_t>(util::resolve_jobs()), chunks);
  if (threads <= 1) {
    format(0, count, w);
    return;
  }
  // The calling thread and threads - 1 pool workers claim chunks in order.
  // Chunk c is formatted into buffer c % slots and claimed only after
  // chunk c - slots has been written, so at most `slots` chunks are in
  // flight; only the calling thread writes, in chunk order.
  const std::size_t slots = 2 * threads;
  struct alignas(64) Chunk {  // a cache line each: no two threads write one
    BlockWriter text;
    bool ready = false;
  };
  std::vector<Chunk> buffers(slots);
  std::mutex mutex;  // guards `ready` and the three below
  std::size_t claimed = 0;
  std::size_t written = 0;
  bool stop = false;
  std::condition_variable chunk_ready;  // the writer waits for its chunk
  std::condition_variable slot_free;    // workers wait for a claim
  // Claims and formats the next chunk, with `lock` released meanwhile;
  // false if none may be claimed. A throw stops every thread.
  const auto format_next = [&](std::unique_lock<std::mutex>& lock) {
    if (stop || claimed == chunks || claimed == written + slots) return false;
    const std::size_t c = claimed++;
    Chunk& chunk = buffers[c % slots];
    lock.unlock();
    try {
      chunk.text.clear();
      format(c * per_chunk, std::min(count, (c + 1) * per_chunk), chunk.text);
    } catch (...) {
      lock.lock();
      stop = true;
      chunk_ready.notify_one();
      slot_free.notify_all();
      throw;
    }
    lock.lock();
    chunk.ready = true;
    if (c == written) chunk_ready.notify_one();
    return true;
  };
  util::ThreadPool pool(static_cast<int>(threads - 1));
  std::exception_ptr error;  // the calling thread's
  try {
    for (std::size_t i = 1; i < threads; ++i) {
      pool.submit([&] {  // a throw comes out of pool.wait()
        std::unique_lock lock(mutex);
        while (!stop && claimed < chunks) {
          if (!format_next(lock)) {
            slot_free.wait(lock, [&] {
              return stop || claimed == chunks || claimed < written + slots;
            });
          }
        }
      });
    }
    w.flush();
    std::ostream& out = *w.out_;
    std::unique_lock lock(mutex);
    while (written < chunks && !stop && out) {
      Chunk& chunk = buffers[written % slots];
      if (chunk.ready) {
        lock.unlock();
        const std::string_view text = chunk.text.text();
        out.write(text.data(), static_cast<std::streamsize>(text.size()));
        lock.lock();
        chunk.ready = false;
        ++written;
        slot_free.notify_one();
      } else if (!format_next(lock)) {
        chunk_ready.wait(lock, [&] { return stop || chunk.ready; });
      }
    }
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard lock(mutex);
    stop = true;
  }
  slot_free.notify_all();
  pool.wait();  // every worker has stopped; rethrows the first one's error
  if (error) std::rethrow_exception(error);
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
