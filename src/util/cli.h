// Command-line parsing for the bench and example CLIs: each names its flags
// once, CliArgs rejects every other argument, and each flag is read through
// a getter that checks it. --name value or --name=value; a switch is bare.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace vs::util {

/// A bad command line: run_cli prints it with the usage line and exits 2.
struct UsageError : std::runtime_error { using runtime_error::runtime_error; };

/// Flag names without their leading "--".
using FlagNames = std::initializer_list<std::string_view>;

class CliArgs {
 public:
  /// Parses argv against the flags `names` lists ("help" is always known);
  /// throws UsageError on any other flag and on a positional argument.
  CliArgs(int argc, const char* const* argv,
          std::initializer_list<FlagNames> names);

  /// Getters return `fallback` for an absent flag. They throw UsageError
  /// naming the flag on a valued flag given bare, a switch given a value, a
  /// number std::from_chars does not parse in full or outside [min, max].
  [[nodiscard]] bool has(std::string_view name) const {
    return flags_.contains(name);
  }
  [[nodiscard]] std::string get(std::string_view name,
                                std::string_view fallback = {}) const {
    const std::string* text = value(name);
    return text != nullptr ? *text : std::string(fallback);
  }
  [[nodiscard]] std::int64_t get_int(std::string_view name,
                                     std::int64_t fallback, std::int64_t min,
                                     std::int64_t max) const;
  [[nodiscard]] double get_double(std::string_view name, double fallback,
                                  double min, double max) const;
  /// Index in `choices` of the value (UsageError if not there), or of
  /// `fallback` when the flag is absent (choices.size() if not there).
  [[nodiscard]] std::size_t get_choice(
      std::string_view name, const std::vector<std::string_view>& choices,
      std::string_view fallback) const;
  /// True when the switch is given.
  [[nodiscard]] bool get_bool(std::string_view name) const;
  /// For flags the chosen mode ignores: throws UsageError naming the first
  /// of `names` that is given, followed by `why` ("has no effect with
  /// --cluster"), so the run does not silently skip what was asked.
  void reject(FlagNames names, std::string_view why) const;

 private:
  /// The flag's text, or null when absent; throws if given bare (nullopt).
  [[nodiscard]] const std::string* value(std::string_view name) const;

  std::map<std::string, std::optional<std::string>, std::less<>> flags_;
};

/// The entry point of every bench and example: parses argv against `names`
/// and returns `body`'s exit code; --help prints the usage line and returns
/// 0. On stderr, a UsageError prints "error: <message>" and the usage line
/// and returns 2; any other std::runtime_error (an unwritable output file)
/// prints "error: <message>" and returns 1, not std::terminate.
int run_cli(int argc, const char* const* argv,
            std::initializer_list<FlagNames> names,
            const std::function<int(const CliArgs&)>& body);

}  // namespace vs::util
