// Fig 2 reproduction: the PR-contention / task-execution-blocking timeline.
//
// Two applications, each with 3 tasks and small batches, run on four Little
// slots under three schedulers:
//   - Nimblock (single-core): each PCAP load suspends the scheduler, so
//     batch launches and the other app's PRs queue behind it;
//   - VersaSlot Only.Little (dual-core): launches proceed during PRs, but
//     PCAP serialisation still delays bitstream loads;
//   - VersaSlot Big.Little: each app is bundled into one Big-slot 3-in-1
//     task; a single PR per app, no cross-app PR interference.
// The ASCII Gantt rendering makes the blocking structure visible, and the
// summary line quantifies response times for both apps.
#include <iostream>

#include "core/versaslot.h"
#include "util/cli.h"

namespace {

using namespace vs;

apps::AppSpec make_demo_app(const std::string& name,
                            const fpga::BoardParams& params) {
  apps::AppSpec app;
  app.name = name;
  for (int i = 0; i < 3; ++i) {
    apps::TaskSpec t;
    t.index = i;
    t.name = "T" + std::to_string(i + 1);
    t.synth_usage = {24'000, 36'000, 32, 120};
    t.impl_usage = {15'000, 23'000, 32, 120};
    t.item_latency = sim::ms(30.0);
    t.item_bytes_in = 200'000;
    t.item_bytes_out = 100'000;
    t.bitstream_bytes = params.little_bitstream_bytes;
    app.tasks.push_back(t);
  }
  return app;
}

void run_scenario(metrics::SystemKind kind) {
  sim::Simulator sim;
  fpga::Board board(sim, "fpga0", metrics::fabric_for(kind));
  auto policy = metrics::make_policy(kind);
  runtime::BoardRuntime rt(board, *policy);
  obs::ClusterTraceHub hub;
  hub.enable_trace();
  obs::TraceChannel& spans = hub.channel(board.name());
  rt.bind_observability(spans);

  const std::vector<apps::AppSpec> suite = {
      make_demo_app("App1", board.params()),
      make_demo_app("App2", board.params())};
  rt.submit(suite[0], 0, /*batch=*/3, 0);
  sim.schedule(sim::ms(20.0), [&] { rt.submit(suite[1], 1, /*batch=*/2, sim::ms(20.0)); });
  sim.run();

  std::cout << "--- " << policy->name() << " ("
            << metrics::fabric_for(kind).name() << " fabric) ---\n";
  std::cout << obs::render_gantt(spans, 110);
  for (const auto& c : rt.completed()) {
    std::cout << "  " << suite[static_cast<std::size_t>(c.spec_index)].name
              << " response: "
              << util::fmt(c.response_ms(), 1) << " ms\n";
  }
  std::cout << "  PRs: " << rt.counters().pr_requests << " ("
            << rt.counters().pr_blocked
            << " queued behind another), blocked scheduler passes: "
            << rt.counters().launch_blocked << "\n\n";
}

}  // namespace

int run(const vs::util::CliArgs&) {
  std::cout << "Fig 2 scenario: App1 (3 tasks, batch 3) and App2 (3 tasks, "
               "batch 2) sharing one FPGA\n\n";
  run_scenario(vs::metrics::SystemKind::kNimblock);
  run_scenario(vs::metrics::SystemKind::kVersaOnlyLittle);
  run_scenario(vs::metrics::SystemKind::kVersaBigLittle);
  std::cout << "Note how the single-core scheduler's reconfigurations (#) "
               "serialise with executions (=),\nwhile Big.Little loads one "
               "bundle per app and pipelines internally.\n";
  return 0;
}

int main(int argc, char** argv) {
  return vs::util::run_cli(argc, argv, {}, run);
}
