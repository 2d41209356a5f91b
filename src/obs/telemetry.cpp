#include "obs/telemetry.h"

#include <ostream>

#include "obs/block_writer.h"

namespace vs::obs {

Telemetry::Telemetry() : sampler_(registry_, sim::ms(50)) {}

void Telemetry::write_outputs(const std::string& prefix) const {
  const char* what = "metrics output file";
  write_file(prefix + ".prom", what,
             [this](std::ostream& out) { write_prometheus(registry_, out); });
  write_file(prefix + ".jsonl", what, [this](std::ostream& out) {
    write_timeseries_jsonl(sampler_, registry_, out);
  });
  write_file(prefix + ".report.json", what, [this](std::ostream& out) {
    write_run_report(registry_, info_, &sampler_, out);
  });
}

}  // namespace vs::obs
