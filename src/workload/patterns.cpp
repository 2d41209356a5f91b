#include "workload/patterns.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace vs::workload {

Sequence phased_sequence(const std::vector<Phase>& phases, util::Rng& rng,
                         const WorkloadConfig& config) {
  Sequence seq;
  sim::SimTime t = 0;
  for (const Phase& phase : phases) {
    for (int i = 0; i < phase.count; ++i) {
      apps::AppArrival a;
      a.spec_index =
          static_cast<int>(rng.uniform_int(0, config.suite_size - 1));
      a.batch = static_cast<int>(rng.uniform_int(kMinBatch, kMaxBatch));
      a.arrival = t;
      seq.push_back(a);
      t += draw_interval(phase.congestion, rng);
    }
  }
  return seq;
}

Sequence fig8_long_workload(std::uint64_t seed, int burst, int total) {
  util::Rng rng(seed);
  return phased_sequence(
      {{burst, Congestion::kStress}, {total - burst, Congestion::kStandard}},
      rng);
}

void save_sequence(const Sequence& sequence, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << "spec_index,arrival_ns,batch\n";
  for (const apps::AppArrival& a : sequence) {
    out << a.spec_index << ',' << a.arrival << ',' << a.batch << '\n';
  }
}

Sequence load_sequence(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  Sequence seq;
  std::string line;
  std::getline(in, line);  // header
  int lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream row(line);
    apps::AppArrival a;
    char c1 = 0, c2 = 0;
    if (!(row >> a.spec_index >> c1 >> a.arrival >> c2 >> a.batch) ||
        c1 != ',' || c2 != ',') {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": malformed row '" + line + "'");
    }
    if (a.spec_index < 0 || a.batch < 1 || a.arrival < 0) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": out-of-range values");
    }
    seq.push_back(a);
  }
  return seq;
}

}  // namespace vs::workload
