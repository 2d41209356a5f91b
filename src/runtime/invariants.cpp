#include "runtime/invariants.h"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <sstream>

namespace vs::runtime {

namespace {

void check(InvariantReport& report, bool condition, const std::string& msg) {
  if (!condition) report.violations.push_back(msg);
}

constexpr std::array<const char*, kUnitStateCount> kUnitStateNames = {
    "pending", "reconfiguring", "running", "finished"};

std::string unit_name(const AppRun& a, int unit_index) {
  return (a.spec ? a.spec->name : std::string("<extracted>")) + "#" +
         std::to_string(a.id) + ".u" + std::to_string(unit_index);
}

}  // namespace

std::string InvariantReport::to_string() const {
  if (ok()) return "all invariants hold";
  std::ostringstream out;
  out << violations.size() << " violation(s):\n";
  for (const auto& v : violations) out << "  - " << v << "\n";
  return out.str();
}

InvariantReport audit(const BoardRuntime& rt) {
  InvariantReport report;
  const fpga::Board& board = rt.board();

  // Map slot id -> (app, unit) holding it, built from unit state.
  std::map<int, std::pair<int, int>> holders;

  for (const AppRun& a : rt.apps()) {
    if (a.spec == nullptr) continue;  // extracted tombstone: no state to hold
    int prev_items = -1;
    for (std::size_t ui = 0; ui < a.units.size(); ++ui) {
      const UnitRun& u = a.units[ui];
      int unit_index = static_cast<int>(ui);
      std::string name = unit_name(a, unit_index);

      // I1: items_done within [0, batch].
      check(report, u.items_done >= 0 && u.items_done <= a.batch,
            name + ": items_done " + std::to_string(u.items_done) +
                " outside [0," + std::to_string(a.batch) + "]");

      // I2: pipeline order — a unit can never be ahead of its predecessor.
      if (prev_items >= 0) {
        check(report, u.items_done <= prev_items,
              name + ": ahead of upstream (" + std::to_string(u.items_done) +
                  " > " + std::to_string(prev_items) + ")");
      }
      prev_items = u.items_done;

      // I3: state/slot consistency.
      switch (u.state) {
        case UnitState::kPending:
          check(report, u.slot == -1, name + ": pending but holds a slot");
          check(report, !u.item_in_flight,
                name + ": pending with an item in flight");
          break;
        case UnitState::kReconfiguring:
        case UnitState::kRunning:
          check(report, u.slot >= 0 || u.slot == -2,
                name + ": placed without a slot");
          if (u.slot >= 0) {
            auto [it, inserted] =
                holders.emplace(u.slot, std::make_pair(a.id, unit_index));
            check(report, inserted,
                  name + ": slot " + std::to_string(u.slot) +
                      " also held by app " + std::to_string(it->second.first));
          }
          if (u.state == UnitState::kReconfiguring) {
            check(report, !u.item_in_flight,
                  name + ": executing while reconfiguring");
          }
          break;
        case UnitState::kFinished:
          check(report, u.slot == -1, name + ": finished but holds a slot");
          check(report, u.items_done == a.batch,
                name + ": finished with incomplete batch");
          check(report, !u.item_in_flight,
                name + ": finished with an item in flight");
          break;
      }
    }

    // I4: app completion implies all units finished, and vice versa.
    bool all_finished = true;
    for (const UnitRun& u : a.units) {
      all_finished &= (u.state == UnitState::kFinished);
    }
    if (a.done()) {
      check(report, all_finished,
            "app " + std::to_string(a.id) + ": done with unfinished units");
    }

    // I5: the per-state unit counts (which units_placed, units_pending and
    // friends answer from) agree with a recount of the unit states.
    std::array<int, kUnitStateCount> recount{};
    for (const UnitRun& u : a.units) {
      ++recount[static_cast<std::size_t>(u.state)];
    }
    for (std::size_t st = 0; st < kUnitStateCount; ++st) {
      check(report, a.unit_counts[st] == recount[st],
            "app " + std::to_string(a.id) + ": " + kUnitStateNames[st] +
                " unit count " + std::to_string(a.unit_counts[st]) +
                ", recount " + std::to_string(recount[st]));
    }
  }

  // I6: slot states agree with the holder map.
  for (const fpga::Slot& s : board.slots()) {
    bool held = holders.count(s.id()) > 0;
    if (s.state() == fpga::SlotState::kIdle) {
      check(report, !held,
            "slot " + s.name() + ": idle but a unit claims it");
    } else {
      check(report, held,
            "slot " + s.name() + ": " + to_string(s.state()) +
                " but no unit claims it");
      if (held) {
        check(report, s.occupant_app() == holders[s.id()].first,
              "slot " + s.name() + ": occupant app mismatch");
      }
    }
  }

  // I7: counter consistency.
  const RuntimeCounters& c = rt.counters();
  check(report, c.pr_blocked <= c.pr_requests,
        "more blocked PRs than PR requests");
  check(report, c.apps_completed ==
                    static_cast<std::int64_t>(rt.completed().size()),
        "apps_completed counter disagrees with completion log");

  // I8: completion log sanity.
  for (const CompletedApp& done : rt.completed()) {
    check(report, done.completed >= done.arrival,
          done.name + "#" + std::to_string(done.app_id) +
              ": completed before arrival");
  }

  // I9: the live index is strictly ascending and holds exactly the apps
  // that are admitted, not completed and not extracted.
  const std::vector<int>& live = rt.live_ids();
  check(report,
        std::adjacent_find(live.begin(), live.end(),
                           std::greater_equal<>()) == live.end(),
        "live index not strictly ascending");
  std::vector<int> expected;
  for (const AppRun& a : rt.apps()) {
    if (a.spec != nullptr && !a.done()) expected.push_back(a.id);
  }
  check(report, live == expected,
        "live index holds " + std::to_string(live.size()) +
            " ids, app states say " + std::to_string(expected.size()) +
            " apps are live");
  check(report, rt.active_apps() == static_cast<int>(live.size()),
        "active_apps disagrees with the live index");

  // I10: the running-resource sums, the per-spec live counts and the bound
  // load cell equal a recount. A full-fabric app owns the whole fabric, so
  // its capacity stands in for the occupied slots.
  fpga::ResourceVector used;
  LoadCell cell{static_cast<int>(live.size()), 0};
  int max_spec = -1;
  for (const AppRun& a : rt.apps()) max_spec = std::max(max_spec, a.spec_index);
  std::vector<int> per_spec(static_cast<std::size_t>(max_spec + 1), 0);
  for (int id : live) {
    const AppRun& a = rt.app(id);
    for (const UnitRun& u : a.units) {
      if (u.state == UnitState::kRunning) used += u.spec.impl_usage;
    }
    ++per_spec[static_cast<std::size_t>(a.spec_index)];
    if (a.spec_index < LoadCell::kSpecBits) {
      cell.specs |= std::uint64_t{1} << a.spec_index;
    }
  }
  fpga::ResourceVector occupied;
  for (const fpga::Slot& s : board.slots()) {
    if (s.state() != fpga::SlotState::kIdle) occupied += s.capacity();
  }
  if (rt.full_fabric_app() >= 0) occupied = board.fabric_capacity();
  check(report, rt.used_resources() == used,
        "used sum " + rt.used_resources().to_string() +
            ", running units recount " + used.to_string());
  check(report, rt.occupied_resources() == occupied,
        "occupied sum " + rt.occupied_resources().to_string() +
            ", slot recount " + occupied.to_string());
  for (int spec = 0; spec <= max_spec; ++spec) {
    const int n = per_spec[static_cast<std::size_t>(spec)];
    check(report, rt.live_of_spec(spec) == n,
          "spec " + std::to_string(spec) + ": live count " +
              std::to_string(rt.live_of_spec(spec)) + ", recount " +
              std::to_string(n));
  }
  if (const LoadCell* bound = rt.load_cell(); bound != nullptr) {
    check(report, *bound == cell,
          "load cell (" + std::to_string(bound->load) + ", " +
              std::to_string(bound->specs) + ") disagrees with the live set (" +
              std::to_string(cell.load) + ", " + std::to_string(cell.specs) +
              ")");
  }

  return report;
}

}  // namespace vs::runtime
