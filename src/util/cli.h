// Minimal command-line flag parser for the example drivers: supports
// --name value and --name=value forms, typed lookups with defaults, and
// a generated usage string. No external dependencies.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace vs::util {

class CliArgs {
 public:
  /// Parses argv; unknown flags are collected (the caller decides whether
  /// they are errors). Positional arguments are kept in order.
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = {}) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name,
                              bool fallback = false) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const noexcept {
    return program_;
  }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Runs a CLI's `body` and returns its exit code. A std::runtime_error that
/// escapes it — an output file that cannot be opened or written in full —
/// prints "error: <message>" on stderr and returns 1, where the uncaught
/// exception would end the process in std::terminate.
int run_cli(const std::function<int()>& body);

}  // namespace vs::util
