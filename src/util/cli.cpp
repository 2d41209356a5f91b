#include "util/cli.h"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace vs::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    auto eq = name.find('=');
    if (eq != std::string::npos) {
      flags_[name.substr(0, eq)] = name.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[name] = argv[++i];
    } else {
      flags_[name] = "true";  // bare boolean flag
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  auto it = flags_.find(name);
  return it != flags_.end() ? it->second : fallback;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

int run_cli(const std::function<int()>& body) {
  try {
    return body();
  } catch (const std::runtime_error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace vs::util
