#include "faults/fault_plane.h"

#include <cassert>
#include <cmath>

#include "util/log.h"

namespace vs::faults {

FaultPlane::FaultPlane(sim::Simulator& sim, FaultScenario scenario)
    : sim_(sim),
      scenario_(std::move(scenario)),
      flap_rng_(scenario_.stream("link/flap")) {
  domains_.reserve(scenario_.domains.size());
  for (std::size_t d = 0; d < scenario_.domains.size(); ++d) {
    const FailureDomain& dom = scenario_.domains[d];
    DomainRec rec;
    rec.rng = scenario_.stream(
        "rack/" + (dom.name.empty() ? std::to_string(d) : dom.name));
    domains_.push_back(std::move(rec));
  }
}

int FaultPlane::add_board(fpga::Board& board) {
  int id = static_cast<int>(boards_.size());
  BoardRec rec;
  rec.board = &board;
  rec.crash_rng = scenario_.stream("crash/" + std::to_string(id));
  rec.seu_rng = scenario_.stream("seu/" + std::to_string(id));
  if (registry_ != nullptr) {
    rec.available = obs::GaugeHandle{&registry_->gauge(
        "vs_board_available", {{"board", board.name()}})};
    rec.available.set(1.0);
  }
  if (scenario_.pcap_crc_probability > 0) {
    board.pcap().set_fault_model(scenario_.pcap_crc_probability,
                                 scenario_.stream("pcap/" +
                                                  std::to_string(id)));
  }
  boards_.push_back(std::move(rec));
  return id;
}

void FaultPlane::bind_metrics(obs::MetricsRegistry& registry) {
  registry_ = &registry;
  const FaultKind faults[] = {FaultKind::kBoardCrash, FaultKind::kLinkDown,
                              FaultKind::kSlotSeu};
  for (int i = 0; i < 3; ++i) {
    m_injected_[i] = obs::CounterHandle{&registry.counter(
        "vs_faults_injected_total", {{"kind", to_string(faults[i])}})};
  }
  const FaultKind repairs[] = {FaultKind::kBoardReboot, FaultKind::kLinkUp};
  for (int i = 0; i < 2; ++i) {
    m_recovered_[i] = obs::CounterHandle{&registry.counter(
        "vs_faults_recovered_total", {{"kind", to_string(repairs[i])}})};
  }
  if (!scenario_.domains.empty()) {
    // Registered only when failure domains exist, so every rack-free
    // export stays byte-identical.
    m_rack_events_ =
        obs::CounterHandle{&registry.counter("vs_rack_events_total")};
  }
  for (BoardRec& rec : boards_) {
    rec.available = obs::GaugeHandle{&registry.gauge(
        "vs_board_available", {{"board", rec.board->name()}})};
    rec.available.set(rec.up ? 1.0 : 0.0);
  }
}

void FaultPlane::start() {
  for (const FaultEvent& e : scenario_.timeline) {
    if (!validate_scripted(e)) continue;
    sim_.schedule_at(e.time, [this, e] { apply_scripted(e); });
  }
  for (int b = 0; b < board_count(); ++b) {
    arm(FaultKind::kBoardCrash, b);
    arm(FaultKind::kSlotSeu, b);
  }
  arm(FaultKind::kLinkDown, -1);
  for (int d = 0; d < static_cast<int>(domains_.size()); ++d) {
    arm(FaultKind::kRackEvent, d);
  }
}

bool FaultPlane::validate_scripted(const FaultEvent& e) {
  bool ok = true;
  switch (e.kind) {
    case FaultKind::kBoardCrash:
    case FaultKind::kBoardReboot:
    case FaultKind::kSlotSeu:
      ok = e.board >= 0 && e.board < board_count();
      break;
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      break;  // board/slot ignored
    case FaultKind::kRackEvent:
      ok = e.board >= 0 &&
           e.board < static_cast<int>(scenario_.domains.size());
      break;
  }
  // A scripted SEU slot beyond the board's fabric is also rejected here
  // (negative slots mean "draw uniformly" and stay valid).
  if (ok && e.kind == FaultKind::kSlotSeu && e.slot >= 0) {
    const BoardRec& rec = boards_[static_cast<std::size_t>(e.board)];
    ok = e.slot < static_cast<int>(rec.board->slots().size());
  }
  if (!ok) {
    ++rejected_scripted_;
    VS_WARN << "rejecting scripted " << to_string(e.kind) << " at t=" << e.time
            << ": board " << e.board << " / slot " << e.slot
            << " out of range for " << board_count() << " boards, "
            << scenario_.domains.size() << " domains";
  }
  return ok;
}

sim::SimDuration FaultPlane::exp_delay(util::Rng& rng, double rate_per_s) {
  // Inverse-CDF exponential; uniform01() < 1 so the log argument is > 0.
  double dt_s = -std::log(1.0 - rng.uniform01()) / rate_per_s;
  return static_cast<sim::SimDuration>(dt_s * 1e9);
}

// Each hazard chain schedules its own next firing, Sampler-style: the next
// draw is scheduled only if it lands inside the horizon. Chains never
// consult queue occupancy — a guard like "stop when nothing else is
// pending" would make the fault schedule depend on incidental events
// (telemetry samplers, tracing), breaking bit-identity between
// instrumented and plain runs. Faulty runs therefore extend to the
// scenario horizon; that costs a handful of no-op events on a drained
// cluster and buys a schedule that is a pure function of the seed.
void FaultPlane::arm(FaultKind kind, int index) {
  const HazardRates& rates = scenario_.hazards;
  double rate = 0.0;
  util::Rng* rng = nullptr;
  switch (kind) {
    case FaultKind::kBoardCrash:
      rate = rates.board_crash_per_s;
      rng = &boards_[static_cast<std::size_t>(index)].crash_rng;
      break;
    case FaultKind::kSlotSeu:
      rate = rates.slot_seu_per_s;
      rng = &boards_[static_cast<std::size_t>(index)].seu_rng;
      break;
    case FaultKind::kLinkDown:
      rate = rates.link_flap_per_s;
      rng = &flap_rng_;
      break;
    case FaultKind::kRackEvent:
      rate = rates.rack_event_per_s;
      rng = &domains_[static_cast<std::size_t>(index)].rng;
      break;
    case FaultKind::kBoardReboot:
    case FaultKind::kLinkUp:
      return;  // repairs follow their faults; no hazard draws them
  }
  if (rate <= 0) return;
  sim::SimTime next = sim_.now() + exp_delay(*rng, rate);
  if (next > scenario_.horizon) return;
  sim_.schedule_at(next, [this, kind, index] {
    // A firing injects what a scripted entry of its kind would; slot -1
    // makes an SEU draw its slot. Inject first, then draw the next delay.
    apply_scripted(FaultEvent{sim_.now(), kind, index, -1});
    arm(kind, index);
  });
}

void FaultPlane::apply_scripted(const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::kBoardCrash:
      if (board_up(e.board)) inject_crash(e.board);
      break;
    case FaultKind::kBoardReboot:
      if (!board_up(e.board)) reboot(e.board);
      break;
    case FaultKind::kLinkDown:
      if (link_up_) inject_link_down();
      break;
    case FaultKind::kLinkUp:
      if (!link_up_) restore_link();
      break;
    case FaultKind::kSlotSeu:
      if (board_up(e.board)) inject_seu(e.board, e.slot);
      break;
    case FaultKind::kRackEvent:
      inject_rack_event(e.board);
      break;
  }
}

void FaultPlane::emit(FaultKind kind, int board, int slot) {
  switch (kind) {
    case FaultKind::kBoardCrash: m_injected_[0].add(); break;
    case FaultKind::kLinkDown: m_injected_[1].add(); break;
    case FaultKind::kSlotSeu: m_injected_[2].add(); break;
    case FaultKind::kBoardReboot: m_recovered_[0].add(); break;
    case FaultKind::kLinkUp: m_recovered_[1].add(); break;
    case FaultKind::kRackEvent: m_rack_events_.add(); break;
  }
  HealthEvent event{sim_.now(), kind, board, slot};
  injected_.push_back(event);
  if (handler_) handler_(event);
}

void FaultPlane::inject_crash(int board) {
  BoardRec& rec = boards_[static_cast<std::size_t>(board)];
  assert(rec.up);
  rec.up = false;
  rec.down_since = sim_.now();
  rec.available.set(0.0);
  VS_WARN << rec.board->name() << ": board crash injected";
  emit(FaultKind::kBoardCrash, board, -1);
  // The repair is unconditional and bounded: exactly one reboot per outage.
  sim_.schedule(scenario_.repair.board_reboot, [this, board] {
    reboot(board);
  });
}

void FaultPlane::reboot(int board) {
  BoardRec& rec = boards_[static_cast<std::size_t>(board)];
  if (rec.up) return;  // a scripted reboot already brought it back
  rec.up = true;
  rec.down_ns += sim_.now() - rec.down_since;
  rec.available.set(1.0);
  VS_INFO << rec.board->name() << ": rebooted";
  emit(FaultKind::kBoardReboot, board, -1);
}

void FaultPlane::inject_link_down() {
  assert(link_up_);
  link_up_ = false;
  VS_WARN << "aurora link flap injected";
  emit(FaultKind::kLinkDown, -1, -1);
  sim_.schedule(kLinkOutage, [this] {
    if (!link_up_) restore_link();
  });
}

void FaultPlane::restore_link() {
  assert(!link_up_);
  link_up_ = true;
  emit(FaultKind::kLinkUp, -1, -1);
}

void FaultPlane::inject_seu(int board, int slot) {
  BoardRec& rec = boards_[static_cast<std::size_t>(board)];
  assert(rec.up);
  int slot_count = static_cast<int>(rec.board->slots().size());
  if (slot_count == 0) return;
  if (slot < 0) {
    slot = static_cast<int>(rec.seu_rng.uniform_int(0, slot_count - 1));
  }
  if (slot >= slot_count) return;  // scripted slot beyond this fabric
  VS_WARN << rec.board->name() << ": SEU injected in slot " << slot;
  emit(FaultKind::kSlotSeu, board, slot);
}

void FaultPlane::inject_rack_event(int domain) {
  const FailureDomain& dom =
      scenario_.domains.at(static_cast<std::size_t>(domain));
  DomainRec& rec = domains_[static_cast<std::size_t>(domain)];
  ++rack_events_;
  VS_WARN << "rack event injected in domain "
          << (dom.name.empty() ? std::to_string(domain) : dom.name) << " ("
          << dom.boards.size() << " boards)";
  // The rack record itself goes out first so handlers can batch the member
  // crashes that follow; board carries the domain index.
  emit(FaultKind::kRackEvent, domain, -1);
  // Member draws happen in declaration order from the single rack stream:
  // survival first, then (for the doomed) a jitter offset. A member that
  // is already down still consumes its survival draw, so the stream's
  // consumption pattern — and with it every later rack schedule — cannot
  // depend on transient board state beyond what the seed already fixed.
  for (int member : dom.boards) {
    if (member < 0 || member >= board_count()) {
      VS_WARN << "rack domain member " << member << " out of range for "
              << board_count() << " boards; skipping";
      continue;
    }
    bool survives = dom.survival_probability > 0 &&
                    rec.rng.uniform01() < dom.survival_probability;
    if (survives) continue;
    sim::SimDuration jitter = 0;
    if (dom.jitter > 0) {
      jitter = static_cast<sim::SimDuration>(
          rec.rng.uniform01() * static_cast<double>(dom.jitter));
    }
    if (!boards_[static_cast<std::size_t>(member)].up) continue;
    if (jitter == 0) {
      inject_crash(member);
    } else {
      sim_.schedule(jitter, [this, member] {
        if (boards_[static_cast<std::size_t>(member)].up) {
          inject_crash(member);
        }
      });
    }
  }
}

double FaultPlane::board_availability(int board, sim::SimTime now) const {
  const BoardRec& rec = boards_.at(static_cast<std::size_t>(board));
  if (now <= 0) return 1.0;
  sim::SimDuration down = rec.down_ns;
  if (!rec.up) down += now - rec.down_since;
  return 1.0 - static_cast<double>(down) / static_cast<double>(now);
}

double FaultPlane::mean_availability(sim::SimTime now) const {
  if (boards_.empty()) return 1.0;
  double sum = 0.0;
  for (int b = 0; b < board_count(); ++b) {
    sum += board_availability(b, now);
  }
  return sum / static_cast<double>(boards_.size());
}

}  // namespace vs::faults
