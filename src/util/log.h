// Lightweight leveled logger: one stderr line per message, prefixed with
// its level.
#pragma once

#include <sstream>
#include <string>

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

  static void write(LogLevel level, const std::string& msg);
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
