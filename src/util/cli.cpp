#include "util/cli.h"

#include <algorithm>
#include <charconv>
#include <iostream>
#include <sstream>

namespace vs::util {

namespace {

template <typename T>
T read_number(std::string_view name, const std::string* text, T fallback,
              T min, T max, const char* what) {
  if (text == nullptr) return fallback;
  T v{};
  const char* end = text->data() + text->size();
  const auto [stop, ec] = std::from_chars(text->data(), end, v);
  if (ec == std::errc{} && stop == end && v >= min && v <= max) return v;
  std::ostringstream msg;
  msg << "--" << name << ": '" << *text << "' is not " << what << " in ["
      << min << ", " << max << "]";
  throw UsageError(msg.str());
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::initializer_list<FlagNames> names) {
  for (int i = 1; i < argc; ++i) {
    std::string_view flag = argv[i];
    if (!flag.starts_with("--")) {
      throw UsageError("unexpected argument '" + std::string(flag) + "'");
    }
    flag.remove_prefix(2);
    std::optional<std::string> value;
    if (const auto eq = flag.find('='); eq != std::string_view::npos) {
      value = std::string(flag.substr(eq + 1));
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc &&
               !std::string_view(argv[i + 1]).starts_with("--")) {
      value = argv[++i];
    }
    if (flag != "help" && std::ranges::none_of(names, [&](FlagNames list) {
          return std::ranges::find(list, flag) != list.end();
        })) {
      throw UsageError("unknown flag --" + std::string(flag));
    }
    flags_.insert_or_assign(std::string(flag), std::move(value));
  }
}

const std::string* CliArgs::value(std::string_view name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return nullptr;
  if (!it->second) throw UsageError("--" + it->first + " needs a value");
  return &*it->second;
}

std::int64_t CliArgs::get_int(std::string_view name, std::int64_t fallback,
                              std::int64_t min, std::int64_t max) const {
  return read_number(name, value(name), fallback, min, max, "a whole number");
}

double CliArgs::get_double(std::string_view name, double fallback,
                           double min, double max) const {
  return read_number(name, value(name), fallback, min, max, "a number");
}

std::size_t CliArgs::get_choice(std::string_view name,
                                const std::vector<std::string_view>& choices,
                                std::string_view fallback) const {
  const std::string* text = value(name);
  const auto index = static_cast<std::size_t>(
      std::ranges::find(choices, text != nullptr ? *text : fallback) -
      choices.begin());
  if (text == nullptr || index < choices.size()) return index;
  std::string list;
  for (std::string_view c : choices) list += "|" + std::string(c);
  throw UsageError("--" + std::string(name) + ": '" + *text +
                   "' is not one of " + list.substr(1));
}

bool CliArgs::get_bool(std::string_view name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return false;
  if (it->second) throw UsageError("--" + it->first + " takes no value");
  return true;
}

void CliArgs::reject(FlagNames names, std::string_view why) const {
  for (std::string_view name : names) {
    if (has(name)) {
      throw UsageError("--" + std::string(name) + " " + std::string(why));
    }
  }
}

int run_cli(int argc, const char* const* argv,
            std::initializer_list<FlagNames> names,
            const std::function<int(const CliArgs&)>& body) {
  std::string_view program = argc > 0 ? argv[0] : "";
  program.remove_prefix(program.rfind('/') + 1);  // npos + 1 == 0
  std::string usage = "usage: " + std::string(program);
  for (FlagNames list : names) {
    for (std::string_view f : list) usage += " [--" + std::string(f) + "]";
  }
  usage += " [--help]\n";
  try {
    const CliArgs args(argc, argv, names);
    if (!args.get_bool("help")) return body(args);
    std::cout << usage;
    return 0;
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n" << usage;
    return 2;
  } catch (const std::runtime_error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace vs::util
