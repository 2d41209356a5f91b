// Lightweight leveled logger: one stderr line per message, prefixed with
// its level. A thread can collect its lines in a buffer instead
// (LogCapture), which parallel sweeps use to keep stderr in job order.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace vs::util {

enum class LogLevel : int { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

/// Parses "trace" | "debug" | "info" | "warn" | "error" | "off"
/// (case-insensitive); unrecognised strings return `fallback`.
[[nodiscard]] LogLevel parse_log_level(const std::string& s,
                                       LogLevel fallback) noexcept;

/// Global log configuration. Default level is kWarn so simulations stay
/// quiet in tests and benches; examples raise it to kInfo. The VS_LOG
/// environment variable overrides the default at startup (resolved once,
/// like VS_JOBS); explicit set_level() calls still win afterwards.
class Log {
 public:
  static void set_level(LogLevel level) noexcept;
  static LogLevel level() noexcept;

  /// Applies VS_LOG to the global level; unset/invalid values leave it
  /// untouched. Runs automatically at static-init time; exposed for tests.
  static void init_from_env();

  /// Writes "[LEVEL] msg" and a newline to this thread's log target:
  /// its LogCapture buffer if it has one, else stderr.
  static void write(LogLevel level, const std::string& msg);
  /// Passes already formatted lines (a LogCapture buffer) on to this
  /// thread's log target.
  static void emit(std::string_view lines);
};

/// While alive, appends the calling thread's log lines to `buffer` instead
/// of writing them; the thread's previous target returns on destruction.
/// metrics::SweepRunner gives each job one, then emits the buffers in job
/// order, so a sweep's stderr does not depend on its worker count.
class LogCapture {
 public:
  explicit LogCapture(std::string& buffer) noexcept;
  ~LogCapture();
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

 private:
  std::string* previous_;
};

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { Log::write(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace vs::util

#define VS_LOG_AT(lvl)                            \
  if (static_cast<int>(lvl) <                     \
      static_cast<int>(::vs::util::Log::level())) \
    ;                                             \
  else                                            \
    ::vs::util::detail::LogLine(lvl)

#define VS_TRACE VS_LOG_AT(::vs::util::LogLevel::kTrace)
#define VS_DEBUG VS_LOG_AT(::vs::util::LogLevel::kDebug)
#define VS_INFO VS_LOG_AT(::vs::util::LogLevel::kInfo)
#define VS_WARN VS_LOG_AT(::vs::util::LogLevel::kWarn)
#define VS_ERROR VS_LOG_AT(::vs::util::LogLevel::kError)
