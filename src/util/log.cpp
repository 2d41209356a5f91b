#include "util/log.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

namespace vs::util {

namespace {
// Atomic so parallel sweep replicas (util/thread_pool) can consult the
// level concurrently without a data race; writes remain rare main-thread
// configuration.
std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::mutex g_mutex;
/// The calling thread's LogCapture buffer, or null for stderr.
thread_local std::string* t_capture = nullptr;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    default: return "?";
  }
}
// VS_LOG is applied exactly once, at static-init time, mirroring how
// VS_JOBS resolves the sweep worker count.
struct EnvInit {
  EnvInit() { Log::init_from_env(); }
};
const EnvInit g_env_init;

}  // namespace

LogLevel parse_log_level(const std::string& s, LogLevel fallback) noexcept {
  std::string lower = s;
  std::transform(lower.begin(), lower.end(), lower.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (lower == "trace") return LogLevel::kTrace;
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off") return LogLevel::kOff;
  return fallback;
}

void Log::init_from_env() {
  if (const char* env = std::getenv("VS_LOG"); env != nullptr && *env != '\0') {
    set_level(parse_log_level(env, level()));
  }
}

void Log::set_level(LogLevel level) noexcept {
  g_level.store(level, std::memory_order_relaxed);
}
LogLevel Log::level() noexcept {
  return g_level.load(std::memory_order_relaxed);
}

void Log::write(LogLevel level, const std::string& msg) {
  if (t_capture != nullptr) {
    t_capture->append("[").append(level_name(level)).append("] ");
    t_capture->append(msg).push_back('\n');
    return;
  }
  std::lock_guard lock(g_mutex);
  std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
}

void Log::emit(std::string_view lines) {
  if (lines.empty()) return;
  if (t_capture != nullptr) {
    t_capture->append(lines);
    return;
  }
  std::lock_guard lock(g_mutex);
  std::fwrite(lines.data(), 1, lines.size(), stderr);
}

LogCapture::LogCapture(std::string& buffer) noexcept
    : previous_(std::exchange(t_capture, &buffer)) {}

LogCapture::~LogCapture() { t_capture = previous_; }

}  // namespace vs::util
