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
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

Sequence load_sequence(const std::string& path, std::size_t suite_size) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  Sequence seq;
  std::string line;
  std::getline(in, line);  // header
  int lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string at = path + ":" + std::to_string(lineno) + ": ";
    std::istringstream row(line);
    apps::AppArrival a;
    char c1 = 0, c2 = 0;
    if (!(row >> a.spec_index >> c1 >> a.arrival >> c2 >> a.batch) ||
        c1 != ',' || c2 != ',') {
      throw std::runtime_error(at + "malformed row '" + line + "'");
    }
    if (a.spec_index < 0 ||
        static_cast<std::size_t>(a.spec_index) >= suite_size) {
      throw std::runtime_error(at + "spec_index " +
                               std::to_string(a.spec_index) + " outside [0, " +
                               std::to_string(suite_size) + ")");
    }
    if (a.batch < 1 || a.arrival < 0) {
      throw std::runtime_error(at + "out-of-range values");
    }
    seq.push_back(a);
  }
  return seq;
}

}  // namespace vs::workload
