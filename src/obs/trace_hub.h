// Cluster-wide causal observability: one canonical timeline across boards.
//
// A ClusterTraceHub owns one TraceChannel per event source (each board plus
// the cluster coordinator). Channels collect two kinds of records:
//
//  - flow points — "s"/"t"/"f" Chrome-trace flow events stitching causal
//    chains that cross boards (pre-copy round N → stop-and-copy → resume on
//    the destination; crash → detection → evacuation → readmission;
//    checkpoint base → delta chain → restore),
//  - journal records — structured app-lifecycle events (admit, bind,
//    preempt, checkpoint, migrate, crash, restore, shed, complete) written
//    as JSONL for postmortem replay of any fig5–8 / fault-resilience run.
//
// The hub also aggregates every board's sim::TraceRecorder span log and
// renders the whole cluster as a single Chrome trace: one process per board
// (pid = attach order), one thread per lane, plus the flow events above.
//
// Each channel is written only by its owning source; storage is a deque so
// creating a channel never moves existing ones. Merging for export happens
// after the run and uses a canonical (time, channel index, append order)
// sort, so a run's files are a pure function of its inputs.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/time.h"
#include "sim/trace.h"

namespace vs::obs {

/// App-lifecycle events recorded in the run journal.
enum class JournalEvent {
  kAdmit,       ///< app accepted by a board runtime
  kBind,        ///< unit bound to a slot (PR issued)
  kPreempt,     ///< running unit preempted from its slot
  kCheckpoint,  ///< checkpoint base or delta captured to DDR
  kComplete,    ///< all batch items finished; response time closed
  kMigrate,     ///< app extracted for a migration transfer
  kCrash,       ///< board crash (journalled once per crash, app = -1)
  kRestore,     ///< app re-admitted from migrated / checkpointed state
  kShed,        ///< app dropped because no capacity survived recovery
  kReadmit,     ///< deferred app re-entered admission after a reboot
};

[[nodiscard]] const char* to_string(JournalEvent e) noexcept;
/// Inverse of to_string; returns false when `name` is not a journal event.
[[nodiscard]] bool journal_event_from_string(const std::string& name,
                                             JournalEvent& out) noexcept;

/// Position of a point within a causal flow arrow chain.
enum class FlowPhase {
  kStart,  ///< Chrome "s" — origin of the flow
  kStep,   ///< Chrome "t" — intermediate hop
  kEnd,    ///< Chrome "f" — terminus (binds to the enclosing slice end)
};

/// One hop of a causal flow, pinned to a (board, lane) at a sim time.
struct FlowPoint {
  std::uint64_t id = 0;  ///< flow identity; all hops of a chain share it
  FlowPhase phase = FlowPhase::kStep;
  sim::SimTime time = 0;
  std::string board;  ///< process the point renders under
  std::string lane;   ///< thread the point renders under
  std::string name;   ///< e.g. "migration", "crash-evac", "ckpt app3"
};

/// One structured lifecycle record. Fields with their listed defaults are
/// omitted from the JSONL encoding.
struct JournalRecord {
  sim::SimTime time = 0;
  JournalEvent event = JournalEvent::kAdmit;
  std::string board;
  int app = -1;           ///< app id; -1 for board-scope events
  std::string spec;       ///< app spec name
  std::uint64_t flow = 0; ///< causal flow id tying the record to the trace
  std::string detail;     ///< free-form context ("slot L2 unit 1", ...)
};

class ClusterTraceHub;

/// Per-source append log. Obtained from ClusterTraceHub::channel(); written
/// only by the owning source's execution context.
class TraceChannel {
 public:
  [[nodiscard]] bool trace_on() const noexcept;
  [[nodiscard]] bool journal_on() const noexcept;

  /// Fresh cluster-unique flow id (namespaced by channel, so sources never
  /// collide).
  [[nodiscard]] std::uint64_t new_flow_id() noexcept {
    return (static_cast<std::uint64_t>(index_ + 1) << 32) | ++flow_seq_;
  }

  void flow(std::uint64_t id, FlowPhase phase, sim::SimTime time,
            std::string board, std::string lane, std::string name) {
    flows_.push_back(FlowPoint{id, phase, time, std::move(board),
                               std::move(lane), std::move(name)});
  }

  void journal(sim::SimTime time, JournalEvent event, std::string board,
               int app = -1, std::string spec = {}, std::uint64_t flow = 0,
               std::string detail = {}) {
    journal_.push_back(JournalRecord{time, event, std::move(board), app,
                                     std::move(spec), flow,
                                     std::move(detail)});
  }

  [[nodiscard]] const std::vector<FlowPoint>& flows() const noexcept {
    return flows_;
  }
  [[nodiscard]] const std::vector<JournalRecord>& journal() const noexcept {
    return journal_;
  }

 private:
  friend class ClusterTraceHub;
  TraceChannel(const ClusterTraceHub* hub, std::size_t index)
      : hub_(hub), index_(index) {}

  const ClusterTraceHub* hub_;
  std::size_t index_;
  std::uint64_t flow_seq_ = 0;
  std::vector<FlowPoint> flows_;
  std::vector<JournalRecord> journal_;
};

/// Aggregation point for one run's cross-board observability. Opt-in: with
/// neither trace nor journal enabled the hub is inert and instrumented
/// components skip all string building.
class ClusterTraceHub {
 public:
  ClusterTraceHub() = default;
  ClusterTraceHub(const ClusterTraceHub&) = delete;
  ClusterTraceHub& operator=(const ClusterTraceHub&) = delete;

  void enable_trace(bool on = true) noexcept { trace_ = on; }
  void enable_journal(bool on = true) noexcept { journal_ = on; }
  [[nodiscard]] bool trace_enabled() const noexcept { return trace_; }
  [[nodiscard]] bool journal_enabled() const noexcept { return journal_; }

  /// Channel for a named source, created on first request.
  TraceChannel& channel(const std::string& name);

  /// Registers a board's span recorder for the merged Chrome trace. Boards
  /// get process ids in first-attach order; a board re-attached across
  /// epochs (fresh recorder per epoch) keeps its pid, and every attached
  /// recorder's spans merge into that process's timeline.
  void attach_spans(const std::string& board, const sim::TraceRecorder* rec);

  /// Snapshots every attached recorder's spans and dropped count into
  /// hub-owned storage and forgets the recorder pointers. The run harness
  /// calls this before tearing the board runtimes down, so exports remain
  /// valid after the run returns. Recorders attached later append as usual.
  void seal();

  /// Chrome trace-event JSON: span "X" events per board process, metadata
  /// ("process_name", per-lane "thread_name", "vs_dropped_spans" with each
  /// board's capacity-bound losses), and "s"/"t"/"f" flow events.
  void write_chrome_trace(std::ostream& out) const;
  /// Throws std::runtime_error naming `path` if it cannot be opened or
  /// written in full.
  void write_chrome_trace_file(const std::string& path) const;

  /// Run journal as JSONL, one record per line, in canonical merged order.
  void write_journal(std::ostream& out) const;
  /// Throws std::runtime_error naming `path` if it cannot be opened or
  /// written in full.
  void write_journal_file(const std::string& path) const;

  /// All channels' journal records in canonical merged order
  /// (time, then channel creation order, then append order).
  [[nodiscard]] std::vector<JournalRecord> merged_journal() const;
  /// All channels' flow points in the same canonical order.
  [[nodiscard]] std::vector<FlowPoint> merged_flows() const;

 private:
  bool trace_ = false;
  bool journal_ = false;
  std::deque<TraceChannel> channels_;
  std::map<std::string, TraceChannel*> channel_index_;
  std::vector<std::string> board_order_;  ///< pid = index + 1
  std::map<std::string, std::vector<const sim::TraceRecorder*>> recorders_;
  std::map<std::string, std::vector<sim::Span>> sealed_spans_;
  std::map<std::string, std::uint64_t> sealed_dropped_;
};

/// Parses JSONL produced by write_journal back into records (round-trip
/// helper for tests and postmortem tooling). Lines that are not journal
/// records are skipped.
[[nodiscard]] std::vector<JournalRecord> parse_journal(std::istream& in);

}  // namespace vs::obs
