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
// creating a channel never moves existing ones. Board, lane and spec names
// are interned in one hub-wide table, so a hub and its channels belong to
// one simulation thread. Merging for export happens after the run and uses
// a canonical (time, channel index, append order) sort, so a run's files
// are a pure function of its inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.h"
#include "sim/trace.h"
#include "util/text_arena.h"

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

/// Position of a point within a causal flow arrow chain.
enum class FlowPhase {
  kStart,  ///< Chrome "s" — origin of the flow
  kStep,   ///< Chrome "t" — intermediate hop
  kEnd,    ///< Chrome "f" — terminus (binds to the enclosing slice end)
};

class ClusterTraceHub;

/// Index of a board, lane or spec name in a ClusterTraceHub's name table.
/// Id 0 is the empty name.
using NameId = std::uint32_t;

/// Per-source append log. Obtained from ClusterTraceHub::channel(); written
/// only by the owning source. Records are fixed-size: names are interned
/// in the hub's table, and flow names and journal details are written
/// straight into the channel's text arena from their pieces (strings,
/// characters, integers, util::Fixed), so a record costs 40 bytes plus its
/// text.
class TraceChannel {
 public:
  /// A flow point: 40 bytes.
  struct Flow {
    std::uint64_t id = 0;
    sim::SimTime time = 0;
    NameId board = 0;
    NameId lane = 0;
    std::uint32_t name_at = 0;  ///< name offset in the text arena
    std::uint32_t name_len = 0;
    FlowPhase phase = FlowPhase::kStep;
  };
  /// A journal record: 40 bytes.
  struct Journal {
    sim::SimTime time = 0;
    std::uint64_t flow = 0;
    std::int32_t app = -1;
    NameId board = 0;
    NameId spec = 0;
    std::uint32_t detail_at = 0;  ///< detail offset in the text arena
    std::uint32_t detail_len = 0;
    JournalEvent event = JournalEvent::kAdmit;
  };

  [[nodiscard]] bool trace_on() const noexcept;
  [[nodiscard]] bool journal_on() const noexcept;
  /// Position in the hub's channel creation order.
  [[nodiscard]] std::size_t index() const noexcept { return index_; }

  /// Fresh cluster-unique flow id (namespaced by channel, so sources never
  /// collide).
  [[nodiscard]] std::uint64_t new_flow_id() noexcept {
    return (static_cast<std::uint64_t>(index_ + 1) << 32) | ++flow_seq_;
  }

  /// Records a flow point named by the concatenation of `name`'s pieces.
  template <typename... Piece>
  void flow(std::uint64_t id, FlowPhase phase, sim::SimTime time,
            std::string_view board, std::string_view lane,
            const Piece&... name) {
    const NameId b = intern(board, board_hint_);
    const NameId l = intern(lane, lane_hint_);
    const auto [at, len] = text_.append(name...);
    flows_.push_back(Flow{id, time, b, l, at, len, phase});
  }

  /// Records a journal entry whose detail is the concatenation of
  /// `detail`'s pieces.
  template <typename... Piece>
  void journal(sim::SimTime time, JournalEvent event, std::string_view board,
               int app = -1, std::string_view spec = {},
               std::uint64_t flow = 0, const Piece&... detail) {
    const NameId b = intern(board, board_hint_);
    const NameId s = intern(spec, spec_hint_);
    const auto [at, len] = text_.append(detail...);
    journal_.push_back(Journal{time, flow, app, b, s, at, len, event});
  }

  [[nodiscard]] const std::vector<Flow>& flows() const noexcept {
    return flows_;
  }
  [[nodiscard]] const std::vector<Journal>& journal_records() const noexcept {
    return journal_;
  }
  [[nodiscard]] std::string_view name(const Flow& f) const noexcept {
    return text_.view(f.name_at, f.name_len);
  }
  [[nodiscard]] std::string_view detail(const Journal& j) const noexcept {
    return text_.view(j.detail_at, j.detail_len);
  }

 private:
  friend class ClusterTraceHub;
  TraceChannel(ClusterTraceHub* hub, std::size_t index)
      : hub_(hub), index_(index) {}
  /// Id of `name`: `hint` when it names the same string (a source mostly
  /// repeats its board, lane and spec), else the hub's lookup, which
  /// becomes the new hint.
  NameId intern(std::string_view name, NameId& hint);

  ClusterTraceHub* hub_;
  std::size_t index_;
  std::uint64_t flow_seq_ = 0;
  NameId board_hint_ = 0;
  NameId lane_hint_ = 0;
  NameId spec_hint_ = 0;
  std::vector<Flow> flows_;
  std::vector<Journal> journal_;
  util::TextArena text_;
};
static_assert(sizeof(TraceChannel::Flow) == 40);
static_assert(sizeof(TraceChannel::Journal) == 40);

/// Aggregation point for one run's cross-board observability. Opt-in: with
/// neither trace nor journal enabled the hub is inert and instrumented
/// components skip all record building.
class ClusterTraceHub {
 public:
  /// Records per chunk when an export's formatting is spread over threads
  /// (obs/block_writer.h, write_ordered): about 48 KiB of text at some 96
  /// bytes per trace span or flow and 144 per journal record, so a chunk
  /// seldom outgrows its writer's first 64 KiB block.
  static constexpr std::size_t kTraceChunk = 64 * 1024 / 128;
  static constexpr std::size_t kJournalChunk = 64 * 1024 / 192;

  ClusterTraceHub();
  ClusterTraceHub(const ClusterTraceHub&) = delete;
  ClusterTraceHub& operator=(const ClusterTraceHub&) = delete;

  void enable_trace(bool on = true) noexcept { trace_ = on; }
  void enable_journal(bool on = true) noexcept { journal_ = on; }
  [[nodiscard]] bool trace_enabled() const noexcept { return trace_; }
  [[nodiscard]] bool journal_enabled() const noexcept { return journal_; }

  /// Channel for a named source, created on first request.
  TraceChannel& channel(const std::string& name);

  /// Id of `name` in the hub-wide name table, interned on first request
  /// (one hash lookup, however many boards the hub serves).
  NameId intern(std::string_view name);
  [[nodiscard]] std::string_view name(NameId id) const noexcept {
    return names_[id];
  }

  /// Registers a board's span recorder for the merged Chrome trace. Boards
  /// get process ids in first-attach order; a board re-attached across
  /// epochs (fresh recorder per epoch) keeps its pid, and every attached
  /// recorder's spans merge into that process's timeline.
  void attach_spans(const std::string& board, sim::TraceRecorder* rec);

  /// Moves every attached recorder's spans into hub-owned storage, leaving
  /// the recorders empty, and forgets the recorder pointers. The run
  /// harness calls this before tearing the board runtimes down, so exports
  /// remain valid after the run returns. Recorders attached later append
  /// as usual.
  void seal();

  /// Chrome trace-event JSON: span "X" events per board process, metadata
  /// ("process_name", per-lane "thread_name"), and "s"/"t"/"f" flow
  /// events.
  void write_chrome_trace(std::ostream& out) const;
  /// Throws std::runtime_error naming `path` if it cannot be opened or
  /// written in full.
  void write_chrome_trace_file(const std::string& path) const;

  /// Run journal as JSONL, one record per line, in canonical merged order.
  void write_journal(std::ostream& out) const;
  /// Throws std::runtime_error naming `path` if it cannot be opened or
  /// written in full.
  void write_journal_file(const std::string& path) const;

 private:
  /// One board's span sources: recorders sealed into the hub, then
  /// recorders still attached.
  struct BoardSpans {
    std::vector<sim::TraceRecorder> sealed;
    std::vector<sim::TraceRecorder*> attached;
  };

  bool trace_ = false;
  bool journal_ = false;
  std::deque<TraceChannel> channels_;
  std::map<std::string, TraceChannel*> channel_index_;
  std::deque<std::string> names_;  ///< by NameId; a deque keeps views valid
  std::unordered_map<std::string_view, NameId> name_ids_;
  std::vector<std::string> board_order_;  ///< pid = index + 1
  std::map<std::string, BoardSpans> spans_;
};

inline NameId TraceChannel::intern(std::string_view name, NameId& hint) {
  if (hub_->name(hint) != name) hint = hub_->intern(name);
  return hint;
}

}  // namespace vs::obs
