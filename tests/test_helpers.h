// Shared helpers for tests: compact synthetic application builders, a
// trivial manually-driven policy for exercising the BoardRuntime directly,
// the app conservation-law assertion shared by every fault/recovery suite,
// and a bare EventQueue driver.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/task.h"
#include "fpga/params.h"
#include "obs/trace_hub.h"
#include "runtime/board_runtime.h"
#include "runtime/policy.h"
#include "sim/event_queue.h"
#include "workload/generator.h"

namespace vs::test {

/// Takes the earliest pending event off `q` and fires it, as
/// sim::Simulator::step() does; returns its time. Fails the test (and fires
/// nothing) when `q` is empty.
inline sim::SimTime fire_next(sim::EventQueue& q) {
  const sim::EventQueue::Due due =
      q.take_due(std::numeric_limits<sim::SimTime>::max());
  if (!due) {
    ADD_FAILURE() << "fire_next on an empty queue";
    return -1;
  }
  q.fire(due);
  return due.time;
}

/// Fires every event of `q`, including those its closures schedule, in
/// (time, seq) order.
inline void drain(sim::EventQueue& q) {
  while (!q.empty()) fire_next(q);
}

/// The app conservation law for a drained fault run: every submitted app
/// ends in exactly one bucket — completed, lost with its board (recovery
/// off), shed by graceful degradation, or refused at the door by the
/// admission throttle. Works for metrics::ClusterRunResult (anything with
/// completed / submitted / recovery).
template <typename Result>
void expect_app_conservation(const Result& r) {
  EXPECT_EQ(r.completed + r.recovery.apps_lost + r.recovery.apps_shed +
                r.recovery.arrivals_shed,
            r.submitted)
      << "conservation violated: completed=" << r.completed
      << " lost=" << r.recovery.apps_lost
      << " shed=" << r.recovery.apps_shed
      << " arrivals_shed=" << r.recovery.arrivals_shed
      << " submitted=" << r.submitted;
}

/// Builds an n-task app where every task has the given per-item latency and
/// a small resource footprint (always fits any slot).
inline apps::AppSpec make_uniform_app(const std::string& name, int n_tasks,
                                      sim::SimDuration item_latency,
                                      const fpga::BoardParams& params = {}) {
  apps::AppSpec app;
  app.name = name;
  for (int i = 0; i < n_tasks; ++i) {
    apps::TaskSpec t;
    t.index = i;
    t.name = "t" + std::to_string(i);
    t.synth_usage = {10'000, 20'000, 16, 32};
    t.impl_usage = {6'000, 12'000, 16, 32};
    t.item_latency = item_latency;
    t.item_bytes_in = 100'000;
    t.item_bytes_out = 50'000;
    t.bitstream_bytes = params.little_bitstream_bytes;
    app.tasks.push_back(t);
  }
  return app;
}

/// App `id`'s completion record on a standalone `rt` (a bound log is shared
/// across boards, whose ids repeat), or null while it has none (still live,
/// or extracted). A departed app's runtime state goes with its slot, so
/// tests read a finished app's outcome here.
inline const runtime::CompletedApp* completion(const runtime::BoardRuntime& rt,
                                               int id) {
  for (const runtime::CompletedApp& c : rt.completed()) {
    if (c.app_id == id) return &c;
  }
  return nullptr;
}

/// Units app `id` holds a slot for right now: none once it left the live
/// set.
inline int units_placed(const runtime::BoardRuntime& rt, int id) {
  return rt.live(id) ? rt.app(id).units_placed() : 0;
}

/// The run journal's JSONL lines, as ClusterTraceHub::write_journal writes
/// them.
inline std::vector<std::string> journal_lines(const obs::ClusterTraceHub& hub) {
  std::ostringstream out;
  hub.write_journal(out);
  std::istringstream in(out.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// How many of `lines` carry every one of `fields`, each a JSON fragment
/// such as `"event":"crash"`.
inline int count_lines(const std::vector<std::string>& lines,
                       std::initializer_list<std::string_view> fields) {
  return static_cast<int>(
      std::count_if(lines.begin(), lines.end(), [&](const std::string& l) {
        return std::all_of(fields.begin(), fields.end(), [&](auto f) {
          return l.find(f) != std::string::npos;
        });
      }));
}

/// A descriptor that resubmits suite entry `spec_index` through
/// BoardRuntime::submit_migrated, the one resubmission path, carrying
/// per-task completed item counts `progress` (empty: never started).
inline runtime::BoardRuntime::MigratedApp resumed_app(
    int spec_index, int batch, sim::SimTime arrival,
    std::vector<int> progress) {
  runtime::BoardRuntime::MigratedApp m{};
  m.spec_index = spec_index;
  m.batch = batch;
  m.arrival = arrival;
  m.progress = std::move(progress);
  return m;
}

/// A 20-app Stress sequence in which every other app's first stage is fed
/// at 25, 50 or 75 ms per item, so stream wake-ups interleave with the
/// staged apps' launches, PRs and preemptions.
inline workload::Sequence mixed_stream_sequence(std::uint64_t seed) {
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 20;
  workload::Sequence sequence =
      workload::generate_sequences(config, 1, seed)[0];
  for (std::size_t i = 1; i < sequence.size(); i += 2) {
    sequence[i].item_interval = sim::ms(25.0 * static_cast<double>(1 + i % 3));
  }
  return sequence;
}

/// A policy whose pass behaviour is provided by the test as a callback.
/// Useful for driving the runtime into precise states.
class ScriptedPolicy final : public runtime::SchedulerPolicy {
 public:
  using PassFn = std::function<void(runtime::BoardRuntime&)>;

  explicit ScriptedPolicy(PassFn on_pass = nullptr, bool dual = false)
      : on_pass_(std::move(on_pass)), dual_(dual) {}

  [[nodiscard]] const char* name() const override { return "scripted"; }
  [[nodiscard]] bool dual_core() const override { return dual_; }
  void on_app_submitted(runtime::BoardRuntime&, int) override {}
  void on_pass(runtime::BoardRuntime& rt) override {
    if (on_pass_) on_pass_(rt);
  }
  void set_pass(PassFn fn) { on_pass_ = std::move(fn); }

 private:
  PassFn on_pass_;
  bool dual_;
};

/// Policy that greedily places every pending unit into any idle slot of the
/// right kind (no allocation limits) — the simplest complete scheduler.
class GreedyPolicy final : public runtime::SchedulerPolicy {
 public:
  explicit GreedyPolicy(bool dual = true) : dual_(dual) {}
  [[nodiscard]] const char* name() const override { return "greedy"; }
  [[nodiscard]] bool dual_core() const override { return dual_; }
  void on_app_submitted(runtime::BoardRuntime&, int) override {}
  void on_pass(runtime::BoardRuntime& rt) override {
    for (int id : rt.live_ids()) {
      const runtime::AppRun& a = rt.app(id);
      for (const runtime::UnitRun& u : a.units) {
        if (u.state != runtime::UnitState::kPending) continue;
        rt.idle_slots(u.spec.slot_kind, idle_);
        if (idle_.empty()) return;
        int unit_index = static_cast<int>(&u - a.units.data());
        rt.request_pr(a.id, unit_index, idle_.front());
      }
    }
  }

 private:
  bool dual_;
  std::vector<int> idle_;
};

}  // namespace vs::test
