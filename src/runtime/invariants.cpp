#include "runtime/invariants.h"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <map>
#include <sstream>

/// Records `msg` when `condition` fails. The message is built only then, so
/// a passing audit does no string work and can run after every event.
#define VS_CHECK(report, condition, msg)                   \
  do {                                                     \
    if (!(condition)) (report).violations.push_back(msg); \
  } while (false)

namespace vs::runtime {

namespace {

constexpr std::array<const char*, kUnitStateCount> kUnitStateNames = {
    "pending", "reconfiguring", "running", "finished"};

std::string unit_name(const AppRun& a, int unit_index) {
  return a.spec->name + "#" + std::to_string(a.id) + ".u" +
         std::to_string(unit_index);
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

  // The live apps' slots: a departed app holds no state. An id the live
  // index names without a slot is I9's to report.
  const std::vector<int>& live = rt.live_ids();
  std::vector<const AppRun*> live_apps;
  for (int id : live) {
    if (rt.live(id)) live_apps.push_back(&rt.app(id));
  }

  for (const AppRun* app : live_apps) {
    const AppRun& a = *app;
    int prev_items = -1;
    for (std::size_t ui = 0; ui < a.units.size(); ++ui) {
      const UnitRun& u = a.units[ui];
      int unit_index = static_cast<int>(ui);
      auto name = [&] { return unit_name(a, unit_index); };

      // I1: items_done within [0, batch].
      VS_CHECK(report, u.items_done >= 0 && u.items_done <= a.batch,
               name() + ": items_done " + std::to_string(u.items_done) +
                   " outside [0," + std::to_string(a.batch) + "]");

      // I2: pipeline order — a unit can never be ahead of its predecessor.
      if (prev_items >= 0) {
        VS_CHECK(report, u.items_done <= prev_items,
                 name() + ": ahead of upstream (" +
                     std::to_string(u.items_done) + " > " +
                     std::to_string(prev_items) + ")");
      }
      prev_items = u.items_done;

      // I3: state/slot consistency.
      switch (u.state) {
        case UnitState::kPending:
          VS_CHECK(report, u.slot == -1, name() + ": pending but holds a slot");
          VS_CHECK(report, !u.item_in_flight,
                   name() + ": pending with an item in flight");
          break;
        case UnitState::kReconfiguring:
        case UnitState::kRunning:
          VS_CHECK(report, u.slot >= 0 || u.slot == -2,
                   name() + ": placed without a slot");
          if (u.slot >= 0) {
            auto [it, inserted] =
                holders.emplace(u.slot, std::make_pair(a.id, unit_index));
            VS_CHECK(report, inserted,
                     name() + ": slot " + std::to_string(u.slot) +
                         " also held by app " +
                         std::to_string(it->second.first));
          }
          if (u.state == UnitState::kReconfiguring) {
            VS_CHECK(report, !u.item_in_flight,
                     name() + ": executing while reconfiguring");
          }
          break;
        case UnitState::kFinished:
          VS_CHECK(report, u.slot == -1,
                   name() + ": finished but holds a slot");
          VS_CHECK(report, u.items_done == a.batch,
                   name() + ": finished with incomplete batch");
          VS_CHECK(report, !u.item_in_flight,
                   name() + ": finished with an item in flight");
          break;
      }
    }

    // I4: a live app has an unfinished unit: the event that finishes its
    // last unit completes it and takes it out of the live set.
    VS_CHECK(report,
             std::ranges::any_of(a.units,
                                 [](const UnitRun& u) {
                                   return u.state != UnitState::kFinished;
                                 }),
             "app " + std::to_string(a.id) +
                 ": live with every unit finished");

    // I5: the per-state unit masks and the in-flight mask (which
    // units_placed, next_pending_unit, try_launches and friends answer
    // from) agree with a recount of the units.
    std::array<std::uint32_t, kUnitStateCount> recount{};
    std::uint32_t in_flight = 0;
    for (std::size_t ui = 0; ui < a.units.size(); ++ui) {
      recount[static_cast<std::size_t>(a.units[ui].state)] |= 1U << ui;
      in_flight |= a.units[ui].item_in_flight ? 1U << ui : 0U;
    }
    for (std::size_t st = 0; st < kUnitStateCount; ++st) {
      VS_CHECK(report, a.unit_masks[st] == recount[st],
               "app " + std::to_string(a.id) + ": " + kUnitStateNames[st] +
                   " unit count " +
                   std::to_string(std::popcount(a.unit_masks[st])) +
                   ", recount " + std::to_string(std::popcount(recount[st])));
    }
    VS_CHECK(report, a.in_flight_mask == in_flight,
             "app " + std::to_string(a.id) + ": in-flight mask " +
                 std::to_string(a.in_flight_mask) + ", recount " +
                 std::to_string(in_flight));
  }

  // I6: slot states agree with the holder map.
  for (const fpga::Slot& s : board.slots()) {
    bool held = holders.count(s.id()) > 0;
    if (s.state() == fpga::SlotState::kIdle) {
      VS_CHECK(report, !held,
               "slot " + s.name() + ": idle but a unit claims it");
    } else {
      VS_CHECK(report, held,
               "slot " + s.name() + ": " + to_string(s.state()) +
                   " but no unit claims it");
      if (held) {
        VS_CHECK(report, s.occupant_app() == holders[s.id()].first,
                 "slot " + s.name() + ": occupant app mismatch");
      }
    }
  }

  // I7: counter consistency, and conservation: every app admitted here has
  // completed, been extracted or is live (the log may be shared).
  const RuntimeCounters& c = rt.counters();
  VS_CHECK(report, c.pr_blocked <= c.pr_requests,
           "more blocked PRs than PR requests");
  VS_CHECK(report,
           rt.admitted() == c.apps_completed + c.apps_extracted +
                                rt.active_apps(),
           std::to_string(rt.admitted()) + " apps admitted, " +
               std::to_string(c.apps_completed) + " completed + " +
               std::to_string(c.apps_extracted) + " extracted + " +
               std::to_string(rt.active_apps()) + " live");

  // I8: completion log sanity.
  for (const CompletedApp& done : rt.completed()) {
    VS_CHECK(report, done.completed >= done.arrival,
             "app " + std::to_string(done.app_id) +
                 ": completed before arrival");
  }

  // I9: the live index is strictly ascending and names exactly the ids
  // that hold an app slot — admitted, not completed, not extracted — and
  // each of those slots holds its own id's app.
  VS_CHECK(report,
           std::adjacent_find(live.begin(), live.end(),
                              std::greater_equal<>()) == live.end(),
           "live index not strictly ascending");
  int holding = 0;
  for (int id = 0; id < rt.admitted(); ++id) holding += rt.live(id) ? 1 : 0;
  VS_CHECK(report, holding == static_cast<int>(live.size()),
           "live index holds " + std::to_string(live.size()) + " ids, " +
               std::to_string(holding) + " ids hold an app slot");
  for (int id : live) {
    VS_CHECK(report, rt.live(id) && rt.app(id).id == id,
             "live app " + std::to_string(id) +
                 " holds no app slot of its own");
  }
  VS_CHECK(report, rt.active_apps() == static_cast<int>(live.size()),
           "active_apps disagrees with the live index");

  // I10: the running-resource sums, the idle-slot masks, the per-state
  // slot counts, the per-spec live counts and the load cell equal a
  // recount. A full-fabric app owns the
  // whole fabric, so its capacity stands in for the occupied slots.
  fpga::ResourceVector used;
  LoadCell cell{static_cast<int>(live.size())};
  int max_spec = -1;
  for (const AppRun* a : live_apps) {
    max_spec = std::max(max_spec, a->spec_index);
  }
  std::vector<int> per_spec(static_cast<std::size_t>(max_spec + 1), 0);
  for (const AppRun* app : live_apps) {
    const AppRun& a = *app;
    for (const UnitRun& u : a.units) {
      if (u.state == UnitState::kRunning) used += u.spec.impl_usage;
    }
    ++per_spec[static_cast<std::size_t>(a.spec_index)];
    cell.batch += a.batch;
    if (a.spec_index < LoadCell::kSpecBits) {
      cell.specs |= std::uint64_t{1} << a.spec_index;
    }
  }
  fpga::ResourceVector occupied;
  std::array<std::uint64_t, 2> idle{};
  std::array<int, 4> in_state{};
  for (const fpga::Slot& s : board.slots()) {
    ++in_state[static_cast<std::size_t>(s.state())];
    if (s.state() != fpga::SlotState::kIdle) {
      occupied += s.capacity();
    } else {
      idle[static_cast<std::size_t>(s.kind())] |= std::uint64_t{1} << s.id();
    }
  }
  for (fpga::SlotKind kind : {fpga::SlotKind::kLittle, fpga::SlotKind::kBig}) {
    const std::uint64_t recount = idle[static_cast<std::size_t>(kind)];
    VS_CHECK(report, rt.idle_mask(kind) == recount,
             std::string("idle ") + fpga::to_string(kind) + " slot mask " +
                 std::to_string(rt.idle_mask(kind)) + ", slot recount " +
                 std::to_string(recount));
  }
  for (std::size_t st = 0; st < in_state.size(); ++st) {
    const auto state = static_cast<fpga::SlotState>(st);
    VS_CHECK(report, rt.slot_count(state) == in_state[st],
             std::string(fpga::to_string(state)) + " slot count " +
                 std::to_string(rt.slot_count(state)) + ", slot recount " +
                 std::to_string(in_state[st]));
  }
  if (rt.full_fabric_app() >= 0) occupied = board.fabric_capacity();
  VS_CHECK(report, rt.used_resources() == used,
           "used sum " + rt.used_resources().to_string() +
               ", running units recount " + used.to_string());
  VS_CHECK(report, rt.occupied_resources() == occupied,
           "occupied sum " + rt.occupied_resources().to_string() +
               ", slot recount " + occupied.to_string());
  for (int spec = 0; spec <= max_spec; ++spec) {
    const int n = per_spec[static_cast<std::size_t>(spec)];
    VS_CHECK(report, rt.live_of_spec(spec) == n,
             "spec " + std::to_string(spec) + ": live count " +
                 std::to_string(rt.live_of_spec(spec)) + ", recount " +
                 std::to_string(n));
  }
  // The D_switch window counts events since the cluster last took it, so
  // it lies between zero and the runtime's cumulative counts.
  const LoadCell& state = rt.load_state();
  cell.blocked = std::clamp<std::int64_t>(state.blocked, 0,
                                          c.pr_blocked + c.launch_blocked);
  cell.prs = std::clamp<std::int64_t>(state.prs, 0, c.pr_requests);
  auto fields = [](const LoadCell& x) {
    return "(load " + std::to_string(x.load) + ", batch " +
           std::to_string(x.batch) + ", specs " + std::to_string(x.specs) +
           ", blocked " + std::to_string(x.blocked) + ", prs " +
           std::to_string(x.prs) + ")";
  };
  VS_CHECK(report, state == cell,
           "load cell " + fields(state) + " disagrees with a recount " +
               fields(cell));

  // I11: the slot-less count equals a recount, the launch marks name each
  // marked app once, and every live app with an idle running unit whose
  // next item is ready is marked for the next launch scan — unless that
  // unit is a streamed first stage whose stream kick is pending (the kick
  // marks the app when it fires).
  int slotless = 0;
  for (const AppRun* app : live_apps) {
    const AppRun& a = *app;
    slotless += a.slotless() ? 1 : 0;
    for (std::uint32_t idle = a.idle_units(); idle != 0; idle &= idle - 1) {
      const int ui = std::countr_zero(idle);
      const bool kick_pending =
          ui == 0 && a.item_interval > 0 && a.stream_kick >= 0;
      VS_CHECK(report,
               a.launch_marked || kick_pending || !rt.item_ready(a, ui),
               unit_name(a, ui) +
                   ": idle with its next item ready, but its app is not "
                   "marked for the launch scan");
    }
  }
  VS_CHECK(report, rt.slotless_apps() == slotless,
           "slot-less app count " + std::to_string(rt.slotless_apps()) +
               ", recount " + std::to_string(slotless));
  std::vector<int> marks = rt.launch_marks();
  std::sort(marks.begin(), marks.end());
  VS_CHECK(report,
           std::adjacent_find(marks.begin(), marks.end()) == marks.end(),
           "an app is marked twice for the launch scan");
  // A departed app's mark stays until the next scan skips it.
  std::size_t flagged = 0;
  for (const AppRun* a : live_apps) flagged += a->launch_marked ? 1 : 0;
  const auto live_marks = static_cast<std::size_t>(
      std::count_if(marks.begin(), marks.end(),
                    [&rt](int id) { return rt.live(id); }));
  VS_CHECK(report,
           flagged == live_marks &&
               std::all_of(marks.begin(), marks.end(),
                           [&rt](int id) {
                             return !rt.live(id) || rt.app(id).launch_marked;
                           }),
           std::to_string(live_marks) + " launch marks of live apps, " +
               std::to_string(flagged) + " apps flagged as marked");

  return report;
}

}  // namespace vs::runtime
