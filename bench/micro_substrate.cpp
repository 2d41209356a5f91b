// Micro-benchmarks of the simulation substrate and control-plane
// algorithms, via google-benchmark: event-queue throughput, PCAP queueing,
// the optimal-slot ILP approximation, the slot-allocation pass, and
// whole-sequence simulation rates for each scheduler.
//
// The event-kernel benches (BM_EventQueueScheduleAndPop,
// BM_SimulatorEventRate, BM_SimulatorInterleavedChains,
// BM_SimulatorHoldModel, BM_CoreOpChain and the two overhead benches)
// report an `allocs_per_event` counter fed by the
// allocation-counting operator new below: the InlineEvent + slab-heap
// kernel must execute steady-state events with ZERO heap allocations.
// scripts/check.sh fails unless every one reads 0, and
// scripts/bench_substrate.sh records the numbers in BENCH_substrate.json.
// BM_PolicyPassAllocs reports `allocs_per_pass` for each paper system's
// scheduling pass from the same hook; check.sh fails when any system's
// reads 0.05 or more.
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <utility>

#include "apps/benchmarks.h"
#include "apps/bundling.h"
#include "metrics/experiment.h"
#include "obs/metrics.h"
#include "obs/trace_hub.h"
#include "runtime/board_runtime.h"
#include "runtime/policy.h"
#include "sim/core.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "workload/generator.h"

// ---- allocation-counting hook ---------------------------------------------
// Replaces global operator new/delete for this binary only. The counter is
// sampled around the timed loops; atomics because google-benchmark spawns
// helper threads.
namespace {
std::atomic<std::int64_t> g_alloc_calls{0};

std::int64_t alloc_calls() noexcept {
  return g_alloc_calls.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// ---------------------------------------------------------------------------

namespace {

using namespace vs;

/// Takes and fires every event of `q`, the way Simulator::run() does.
void drain(sim::EventQueue& q) {
  while (const sim::EventQueue::Due due =
             q.take_due(std::numeric_limits<sim::SimTime>::max())) {
    q.fire(due);
    benchmark::DoNotOptimize(due.time);
  }
}

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::EventQueue q;
  // Warm the slab and node heap to their high-water mark so the timed loop
  // measures the steady state (capacity growth happens once per process).
  for (int i = 0; i < n; ++i) q.schedule((i * 2654435761u) % 1000000, [] {});
  drain(q);

  // Steady-state allocation probe, sampled outside the harness loop so the
  // count attributes to the kernel alone (google-benchmark's bookkeeping
  // threads allocate concurrently during timed regions). Must be 0.
  std::int64_t probe_before = alloc_calls();
  for (int rep = 0; rep < 10; ++rep) {
    for (int i = 0; i < n; ++i) {
      q.schedule((i * 2654435761u) % 1000000, [] {});
    }
    drain(q);
  }
  double steady_allocs = static_cast<double>(alloc_calls() - probe_before);

  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      q.schedule((i * 2654435761u) % 1000000, [] {});
    }
    drain(q);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["allocs_per_event"] = steady_allocs / (10.0 * n);
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(10000);

/// A self-rescheduling tick chain. A named struct (not a std::function):
/// the closure re-schedules a fresh copy of itself, which InlineEvent
/// stores inline — the steady-state event loop touches no allocator.
struct Tick {
  sim::Simulator* sim;
  int* remaining;
  void operator()() const {
    if (--*remaining > 0) sim->schedule(100, Tick{sim, remaining});
  }
};

void BM_SimulatorEventRate(benchmark::State& state) {
  constexpr int kEvents = 10000;
  sim::Simulator sim;
  int remaining = 0;
  auto run_chain = [&] {
    remaining = kEvents;
    sim.schedule(0, Tick{&sim, &remaining});
    sim.run();
  };
  run_chain();  // warm the queue's slab and node heap

  // Steady-state allocation probe (see BM_EventQueueScheduleAndPop).
  std::int64_t probe_before = alloc_calls();
  for (int rep = 0; rep < 10; ++rep) run_chain();
  double steady_allocs = static_cast<double>(alloc_calls() - probe_before);

  for (auto _ : state) {
    run_chain();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
  state.counters["allocs_per_event"] = steady_allocs / (10.0 * kEvents);
}
BENCHMARK(BM_SimulatorEventRate);

/// Two tick chains half a period apart. Every pop leaves the other chain's
/// next tick pending, so the event queue's time-ordered run never drains
/// inside one sim.run(): it must drop its consumed prefix rather than grow.
/// The probe runs chains ten times longer than the warm-up, so a run that
/// kept its consumed prefix would reallocate and the probe would read
/// non-zero.
void BM_SimulatorInterleavedChains(benchmark::State& state) {
  constexpr int kEvents = 10000;  // per chain
  sim::Simulator sim;
  int remaining_a = 0;
  int remaining_b = 0;
  auto run_chains = [&](int events) {
    remaining_a = events;
    remaining_b = events;
    sim.schedule(0, Tick{&sim, &remaining_a});
    sim.schedule(50, Tick{&sim, &remaining_b});
    sim.run();
  };
  run_chains(kEvents);  // warm the queue's slab and run

  // Steady-state allocation probe (see BM_EventQueueScheduleAndPop).
  std::int64_t probe_before = alloc_calls();
  run_chains(10 * kEvents);
  double steady_allocs = static_cast<double>(alloc_calls() - probe_before);

  for (auto _ : state) {
    run_chains(kEvents);
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kEvents);
  state.counters["allocs_per_event"] = steady_allocs / (2.0 * 10 * kEvents);
}
BENCHMARK(BM_SimulatorInterleavedChains);

/// One of many chains whose every event schedules its successor a short,
/// varied delay ahead: 2, 5, 20 or 50 us plus up to 1 us of jitter, drawn
/// from the chain's own LCG (serve_fleet's OCM posts, DMA hops, passes and
/// launches). Stops every chain once `remaining` events have fired.
struct HoldTick {
  sim::Simulator* sim;
  int* remaining;
  std::uint32_t lcg;
  void operator()() const {
    if (--*remaining <= 0) return;
    static constexpr std::array<sim::SimDuration, 4> kDelays{2000, 5000,
                                                             20000, 50000};
    const std::uint32_t next = lcg * 1664525U + 1013904223U;
    sim->schedule(kDelays[next >> 30] + (next >> 8) % 1000,
                  HoldTick{sim, remaining, next});
  }
};

/// The DES hold model at fleet scale: 1,024 chains (one per serve_fleet
/// board) keep about a thousand events pending, and almost every pop is
/// followed by one schedule a little way into the future.
void BM_SimulatorHoldModel(benchmark::State& state) {
  constexpr int kChains = 1024;
  constexpr int kEvents = 100000;  // across all chains
  sim::Simulator sim;
  int remaining = 0;
  auto run_chains = [&](int events) {
    remaining = events;
    for (std::uint32_t c = 0; c < kChains; ++c) {
      sim.schedule(static_cast<sim::SimDuration>(c) * 37,
                   HoldTick{&sim, &remaining, c});
    }
    sim.run();
  };
  run_chains(kEvents);  // warm the queue's slab, heap and run

  // Steady-state allocation probe (see BM_EventQueueScheduleAndPop).
  std::int64_t probe_before = alloc_calls();
  for (int rep = 0; rep < 10; ++rep) run_chains(kEvents);
  double steady_allocs = static_cast<double>(alloc_calls() - probe_before);

  for (auto _ : state) {
    run_chains(kEvents);
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * (kEvents + kChains));
  state.counters["allocs_per_event"] =
      steady_allocs / (10.0 * (kEvents + kChains));
}
BENCHMARK(BM_SimulatorHoldModel);

/// Ops on a sim::Core, the way BoardRuntime drives the scheduler core: a
/// chain whose every completion submits the next op, to a core that is
/// idle with an empty FIFO (the op starts at once), and a burst submitted
/// together, where all but the first queue behind a busy core. The default
/// arm submits lambdas, so the chain's callbacks are built into their
/// completion events; the /parked arm wraps every callback in an EventFn,
/// which never fits inline once wrapped and parks in the core's in-flight
/// slot instead.
template <bool kParked>
auto core_callback(auto fn) {
  if constexpr (kParked) {
    return sim::EventFn(std::move(fn));
  } else {
    return fn;
  }
}

template <bool kParked>
struct CoreChain {
  sim::Core* core;
  int remaining = 0;
  std::int64_t done = 0;
  void next() {
    ++done;
    if (--remaining > 0) {
      core->submit(100, core_callback<kParked>([this] { next(); }),
                   sim::OpKind::kLaunch);
    }
  }
};

template <bool kParked>
void BM_CoreOpChain(benchmark::State& state) {
  constexpr int kOps = 1000;  // per path
  sim::Simulator sim;
  sim::Core core(sim, "PS0");
  CoreChain<kParked> chain{&core};
  auto run_round = [&] {
    chain.remaining = kOps;
    core.submit(100, core_callback<kParked>([&chain] { chain.next(); }),
                sim::OpKind::kLaunch);
    sim.run();
    for (int i = 0; i < kOps; ++i) {
      core.submit(100, core_callback<kParked>([&chain] { ++chain.done; }),
                  sim::OpKind::kPass);
    }
    sim.run();
  };
  run_round();  // warm the queue's slab and the core's FIFO

  // Steady-state allocation probe (see BM_EventQueueScheduleAndPop).
  std::int64_t probe_before = alloc_calls();
  for (int rep = 0; rep < 10; ++rep) run_round();
  double steady_allocs = static_cast<double>(alloc_calls() - probe_before);

  for (auto _ : state) {
    run_round();
    benchmark::DoNotOptimize(chain.done);
  }
  state.SetItemsProcessed(state.iterations() * 2 * kOps);
  state.counters["allocs_per_event"] = steady_allocs / (10.0 * 2 * kOps);
}
BENCHMARK(BM_CoreOpChain<false>)->Name("BM_CoreOpChain");
BENCHMARK(BM_CoreOpChain<true>)->Name("BM_CoreOpChain/parked");

/// The tick chain with telemetry handles on the hot path: one counter add
/// and one gauge store per event. Mirrors how real components are
/// instrumented — the handles live in a long-lived object (like
/// sim::Core / fpga::Pcap members) and the event captures a pointer to
/// it, so the closure stays at Tick's size. Arg(0) leaves the handles
/// null (registry disabled — the shipping default), Arg(1) binds them to
/// registry cells, and the bare arm runs the same loop with the handle
/// calls compiled out, so /0 against bare isolates the null-handle guards.
/// scripts/check.sh enforces allocs_per_event == 0 on every arm;
/// scripts/bench_substrate.sh reports the /0-to-bare rate ratio without
/// gating it, since run-to-run spread on a shared host is wider than the
/// few percent the guards cost.
template <bool kGuards>
struct MeteredLoop {
  sim::Simulator* sim;
  int remaining = 0;
  obs::CounterHandle events{};
  obs::GaugeHandle depth{};
  void tick() {
    if constexpr (kGuards) {
      events.add();
      depth.set(static_cast<double>(remaining));
    }
    if (--remaining > 0) {
      sim->schedule(100, [this] { tick(); });
    }
  }
};

template <bool kGuards>
void BM_MetricsOverhead(benchmark::State& state) {
  constexpr int kEvents = 10000;
  const bool enabled = kGuards && state.range(0) != 0;
  obs::MetricsRegistry registry;
  sim::Simulator sim;
  MeteredLoop<kGuards> loop{&sim};
  if (enabled) {
    loop.events =
        obs::CounterHandle(&registry.counter("vs_bench_events_total"));
    loop.depth = obs::GaugeHandle(&registry.gauge("vs_bench_depth"));
  }
  auto run_chain = [&] {
    loop.remaining = kEvents;
    sim.schedule(0, [&loop] { loop.tick(); });
    sim.run();
  };
  run_chain();  // warm the queue's slab and node heap

  // Steady-state allocation probe (see BM_EventQueueScheduleAndPop).
  std::int64_t probe_before = alloc_calls();
  for (int rep = 0; rep < 10; ++rep) run_chain();
  double steady_allocs = static_cast<double>(alloc_calls() - probe_before);

  for (auto _ : state) {
    run_chain();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
  state.counters["allocs_per_event"] = steady_allocs / (10.0 * kEvents);
}
BENCHMARK(BM_MetricsOverhead<true>)
    ->Name("BM_MetricsOverhead")
    ->Arg(0)
    ->Arg(1);
BENCHMARK(BM_MetricsOverhead<false>)->Name("BM_MetricsOverhead/bare");

/// The tick chain with the causal-observability guards on the hot path:
/// the phase-accounting branch (one bool test; enabled, an integer-ns
/// charge into a per-phase account — the bookkeeping BoardRuntime does on
/// every state change) and the hub-channel branch (one null-pointer test;
/// bound, the trace_on()/journal_on() gates that rare lifecycle sites
/// check before emitting). Arg(0) is the shipping default — accounting
/// off, no hub; Arg(1) enables accounting and binds a channel with both
/// streams dark, the instrumented-run steady state between lifecycle
/// events; the bare arm compiles both branches out of the same loop. As
/// for BM_MetricsOverhead, allocs_per_event == 0 is enforced on every arm
/// and the /0-to-bare ratio is reported, not gated.
template <bool kGuards>
struct PhasedLoop {
  sim::Simulator* sim = nullptr;
  int remaining = 0;
  bool acct = false;
  obs::TraceChannel* obs = nullptr;
  sim::SimTime mark = 0;
  std::array<sim::SimDuration, runtime::kAppPhaseCount> account{};
  void tick() {
    if constexpr (kGuards) {
      if (acct) {
        account[static_cast<std::size_t>(remaining) %
                runtime::kAppPhaseCount] += sim->now() - mark;
        mark = sim->now();
      }
      if (obs != nullptr && (obs->trace_on() || obs->journal_on())) {
        obs->journal(sim->now(), obs::JournalEvent::kBind, "bench");
      }
    }
    if (--remaining > 0) {
      sim->schedule(100, [this] { tick(); });
    }
  }
};

template <bool kGuards>
void BM_PhaseAccountingOverhead(benchmark::State& state) {
  constexpr int kEvents = 10000;
  const bool enabled = kGuards && state.range(0) != 0;
  obs::ClusterTraceHub hub;  // streams stay dark: guard cost only
  sim::Simulator sim;
  PhasedLoop<kGuards> loop{&sim};
  if (enabled) {
    loop.acct = true;
    loop.obs = &hub.channel("bench");
  }
  auto run_chain = [&] {
    loop.remaining = kEvents;
    loop.mark = sim.now();
    sim.schedule(0, [&loop] { loop.tick(); });
    sim.run();
  };
  run_chain();  // warm the queue's slab and node heap

  std::int64_t probe_before = alloc_calls();
  for (int rep = 0; rep < 10; ++rep) run_chain();
  double steady_allocs = static_cast<double>(alloc_calls() - probe_before);

  for (auto _ : state) {
    run_chain();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  benchmark::DoNotOptimize(loop.account);
  state.SetItemsProcessed(state.iterations() * kEvents);
  state.counters["allocs_per_event"] = steady_allocs / (10.0 * kEvents);
}
BENCHMARK(BM_PhaseAccountingOverhead<true>)
    ->Name("BM_PhaseAccountingOverhead")
    ->Arg(0)
    ->Arg(1);
BENCHMARK(BM_PhaseAccountingOverhead<false>)
    ->Name("BM_PhaseAccountingOverhead/bare");

void BM_PcapQueueing(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Core core(sim, "c0");
    fpga::Pcap pcap(sim);
    for (int i = 0; i < 100; ++i) {
      pcap.request(sim::ms(1), core, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(pcap.stats().loads_completed);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_PcapQueueing);

void BM_OptimalLittleSlots(benchmark::State& state) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  for (auto _ : state) {
    for (const auto& app : suite) {
      benchmark::DoNotOptimize(
          apps::optimal_little_slots(app, 17, params, 8));
    }
  }
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_OptimalLittleSlots);

void BM_MakeBigUnits(benchmark::State& state) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  std::vector<apps::UnitSpec> units;
  for (auto _ : state) {
    for (const auto& app : suite) {
      apps::make_big_units(units, app, 17, params);
      benchmark::DoNotOptimize(units.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_MakeBigUnits);

/// The 20-app Stress sequence BM_FullSequence and BM_PolicyPassAllocs run.
workload::Sequence stress_sequence() {
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 20;
  util::Rng rng(7);
  return workload::generate_sequence(config, rng);
}

/// Simulation rate for a full 20-app stress sequence per system. Reports
/// how many simulated seconds one wall-clock second covers.
void BM_FullSequence(benchmark::State& state) {
  auto kind = static_cast<metrics::SystemKind>(state.range(0));
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = stress_sequence();
  double sim_seconds = 0;
  for (auto _ : state) {
    auto r = metrics::run_single_board(kind, suite, seq);
    sim_seconds += sim::to_seconds(r.makespan);
    benchmark::DoNotOptimize(r.response.mean);
  }
  state.SetLabel(metrics::system_name(kind));
  state.counters["sim_s_per_s"] = benchmark::Counter(
      sim_seconds, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullSequence)->DenseRange(0, metrics::kSystemCount - 1);

/// Forwards every call to the wrapped policy and counts the heap
/// allocations made inside its passes.
class PassAllocProbe final : public runtime::SchedulerPolicy {
 public:
  explicit PassAllocProbe(std::unique_ptr<runtime::SchedulerPolicy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] bool dual_core() const override {
    return inner_->dual_core();
  }
  void attach(runtime::BoardRuntime& rt) override { inner_->attach(rt); }
  void bind_metrics(obs::MetricsRegistry& registry,
                    const std::string& board) override {
    inner_->bind_metrics(registry, board);
  }
  void on_app_submitted(runtime::BoardRuntime& rt, int app_id) override {
    inner_->on_app_submitted(rt, app_id);
  }
  void on_pass(runtime::BoardRuntime& rt) override {
    std::int64_t before = alloc_calls();
    inner_->on_pass(rt);
    allocs_ += alloc_calls() - before;
    ++passes_;
  }

  [[nodiscard]] std::int64_t allocs() const noexcept { return allocs_; }
  [[nodiscard]] std::int64_t passes() const noexcept { return passes_; }

 private:
  std::unique_ptr<runtime::SchedulerPolicy> inner_;
  std::int64_t allocs_ = 0;
  std::int64_t passes_ = 0;
};

/// Heap allocations per scheduling pass over BM_FullSequence's stress
/// sequence, counted inside on_pass only. Every policy keeps its per-app
/// state from admission and refills kept buffers, so only the first
/// passes' buffer growth counts; VersaSlot-BL also builds Big units into a
/// kept buffer and checks bundling once per spec.
void BM_PolicyPassAllocs(benchmark::State& state) {
  auto kind = static_cast<metrics::SystemKind>(state.range(0));
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  auto seq = stress_sequence();
  std::int64_t allocs = 0;
  std::int64_t passes = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    fpga::Board board(sim, "fpga0", metrics::fabric_for(kind), params);
    PassAllocProbe policy(metrics::make_policy(kind));
    runtime::BoardRuntime rt(board, policy);
    for (const apps::AppArrival& a : seq) {
      sim.schedule_at(a.arrival, [&rt, &suite, a] {
        rt.submit(suite.at(static_cast<std::size_t>(a.spec_index)),
                  a.spec_index, a.batch, a.arrival, a.item_interval);
      });
    }
    sim.run();
    benchmark::DoNotOptimize(rt.completed().size());
    allocs += policy.allocs();
    passes += policy.passes();
  }
  state.SetLabel(metrics::system_name(kind));
  state.counters["allocs_per_pass"] =
      passes > 0 ? static_cast<double>(allocs) / static_cast<double>(passes)
                 : 0.0;
}
BENCHMARK(BM_PolicyPassAllocs)->DenseRange(0, metrics::kSystemCount - 1);

}  // namespace

BENCHMARK_MAIN();
