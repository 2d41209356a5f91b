// Dynamic batch processing demo (§III-A): live sources feed items over
// time instead of staging whole batches. Three camera-style feeds run the
// Optical Flow pipeline at different frame rates alongside staged batch
// jobs, under VersaSlot Big.Little — showing how source-bound and
// compute-bound applications share the fabric.
//
// Usage: streaming_feed [--fps1 F] [--fps2 F] [--fps3 F]
#include <iostream>

#include "core/versaslot.h"
#include "util/cli.h"

int run(const vs::util::CliArgs& args) {
  using namespace vs;

  // Frame rates of the three live feeds, in items per second.
  const double fps[3] = {args.get_double("fps1", 25.0, 0.1, 1000.0),
                         args.get_double("fps2", 10.0, 0.1, 1000.0),
                         args.get_double("fps3", 5.0, 0.1, 1000.0)};

  fpga::BoardParams params;
  auto suite = apps::make_suite(params);

  workload::Sequence seq;
  // Three live Optical Flow feeds (30 frames each) at the given rates...
  for (int i = 0; i < 3; ++i) {
    apps::AppArrival a;
    a.spec_index = 4;  // OF
    a.batch = 30;
    a.arrival = sim::ms(100.0 * i);
    a.item_interval = sim::seconds(1.0 / fps[i]);
    seq.push_back(a);
  }
  // ... plus two staged batch jobs arriving mid-run.
  for (int i = 0; i < 2; ++i) {
    apps::AppArrival a;
    a.spec_index = i == 0 ? 2 : 1;  // IC, LeNet
    a.batch = 12;
    a.arrival = sim::seconds(0.5 + 0.8 * i);
    seq.push_back(a);
  }

  metrics::RunResult r = metrics::run_single_board(
      metrics::SystemKind::kVersaBigLittle, suite, seq);

  std::cout << "Streaming-feed demo — VersaSlot Big.Little\n\n";
  util::Table table({"app", "kind", "source", "batch", "response",
                     "source-bound floor"});
  for (const auto& c : r.apps) {
    const apps::AppArrival& a = seq[static_cast<std::size_t>(c.app_id)];
    table.add_row();
    table.cell(suite[static_cast<std::size_t>(c.spec_index)].name + "#" +
               std::to_string(c.app_id));
    table.cell(a.item_interval > 0 ? "live feed" : "staged");
    table.cell(a.item_interval > 0
                   ? util::fmt(1e9 / static_cast<double>(a.item_interval), 1) +
                         " items/s"
                   : std::string("-"));
    table.cell(static_cast<std::int64_t>(a.batch));
    table.cell(util::fmt(c.response_ms(), 1) + " ms");
    // A live feed cannot finish before its last item is produced.
    table.cell(a.item_interval > 0
                   ? util::fmt(sim::to_ms(a.item_interval) * (a.batch - 1), 1) +
                         " ms"
                   : std::string("-"));
  }
  table.print(std::cout);
  std::cout << "\ncompleted " << r.completed << "/" << r.submitted
            << "; live feeds track their source rate while staged jobs run "
               "compute-bound in between\n";
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(argc, argv, {{"fps1", "fps2", "fps3"}}, run);
}
