// Cluster-wide causal observability: one canonical timeline across boards.
//
// A ClusterTraceHub owns one TraceChannel per event source (each board plus
// the cluster coordinator). Channels collect three kinds of records:
//
//  - spans — a board's slot reconfigurations and batch-item executions,
//    one Chrome-trace "X" event per span, one thread per lane,
//  - flow points — "s"/"t"/"f" Chrome-trace flow events stitching causal
//    chains that cross boards (pre-copy round N → stop-and-copy → resume on
//    the destination; crash → detection → evacuation → readmission;
//    checkpoint base → delta chain → restore),
//  - journal records — structured app-lifecycle events (admit, bind,
//    preempt, checkpoint, migrate, crash, restore, shed, complete) written
//    as JSONL for postmortem replay of any fig5–8 / fault-resilience run.
//
// The hub renders the whole cluster as a single Chrome trace: one process
// per board channel (pid = the order in which channels first resolved a
// span lane), one thread per lane, plus the flow events above.
//
// Each channel is written only by its owning source; storage is a deque so
// creating a channel never moves existing ones. Board, lane and spec names
// are interned in one hub-wide table, so a hub and its channels belong to
// one simulation thread. The hub owns every record, so it can export after
// the sources that wrote them are gone. Merging for export happens after
// the run and uses a canonical (time, channel index, append order) sort, so
// a run's files are a pure function of its inputs.
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

/// What a span's time went to: its Chrome-trace category and Gantt glyph.
enum class SpanKind {
  kReconfig,   ///< partial reconfiguration of a slot
  kExec,       ///< batch-item execution in a slot
  kBlocked,    ///< time a ready action spent blocked (PR queue / core busy)
  kTransfer,   ///< DMA / Aurora data movement
  kMarker,     ///< instantaneous annotation
};

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
/// in the hub's table, and span labels, flow names and journal details are
/// written straight into the channel's text arena from their pieces
/// (strings, characters, integers, util::Fixed), so a record costs 32 or
/// 40 bytes plus its text.
class TraceChannel {
 public:
  /// A span on one of the channel's lanes: 32 bytes.
  struct Span {
    sim::SimTime start = 0;
    sim::SimTime end = 0;
    NameId lane = 0;
    std::uint32_t label_at = 0;  ///< label offset in the text arena
    std::uint32_t label_len = 0;
    SpanKind kind = SpanKind::kMarker;
  };
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

  /// Id of span lane `name` in the hub's name table. The channel's first
  /// call makes it a process of the merged Chrome trace, numbered in the
  /// order channels first resolve a lane: a board runtime resolves its
  /// lanes when it binds the channel, so a board keeps one pid across
  /// epochs whether or not it records a span.
  [[nodiscard]] NameId lane(std::string_view name);

  /// Records a span on `lane` (from lane()) whose label is the
  /// concatenation of `label`'s pieces.
  template <typename... Piece>
  void span(sim::SimTime start, sim::SimTime end, NameId lane, SpanKind kind,
            const Piece&... label) {
    const auto [at, len] = text_.append(label...);
    spans_.push_back(Span{start, end, lane, at, len, kind});
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

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<Flow>& flows() const noexcept {
    return flows_;
  }
  [[nodiscard]] const std::vector<Journal>& journal_records() const noexcept {
    return journal_;
  }
  [[nodiscard]] std::string_view label(const Span& s) const noexcept {
    return text_.view(s.label_at, s.label_len);
  }
  [[nodiscard]] std::string_view lane_name(const Span& s) const noexcept;
  [[nodiscard]] std::string_view name(const Flow& f) const noexcept {
    return text_.view(f.name_at, f.name_len);
  }
  [[nodiscard]] std::string_view detail(const Journal& j) const noexcept {
    return text_.view(j.detail_at, j.detail_len);
  }

 private:
  friend class ClusterTraceHub;
  TraceChannel(ClusterTraceHub* hub, std::size_t index, NameId source)
      : hub_(hub), index_(index), source_(source) {}
  /// Id of `name`: `hint` when it names the same string (a source mostly
  /// repeats its board, lane and spec), else the hub's lookup, which
  /// becomes the new hint.
  NameId intern(std::string_view name, NameId& hint);

  ClusterTraceHub* hub_;
  std::size_t index_;
  NameId source_;  ///< the channel's name: its process in the Chrome trace
  int pid_ = 0;    ///< 0 until the first lane()
  std::uint64_t flow_seq_ = 0;
  NameId board_hint_ = 0;
  NameId lane_hint_ = 0;
  NameId spec_hint_ = 0;
  std::vector<Span> spans_;
  std::vector<Flow> flows_;
  std::vector<Journal> journal_;
  util::TextArena text_;
};
static_assert(sizeof(TraceChannel::Span) == 32);
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

  /// Does nothing: the hub owns every record, so exporting after the run
  /// needs no step before the sources die. Kept only because
  /// e2ebench/traced.cpp calls it; nothing else should.
  void seal() noexcept {}

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
  friend class TraceChannel;

  bool trace_ = false;
  bool journal_ = false;
  int processes_ = 0;  ///< channels that have resolved a span lane
  std::deque<TraceChannel> channels_;
  std::map<std::string, TraceChannel*> channel_index_;
  std::deque<std::string> names_;  ///< by NameId; a deque keeps views valid
  std::unordered_map<std::string_view, NameId> name_ids_;
};

inline NameId TraceChannel::intern(std::string_view name, NameId& hint) {
  if (hub_->name(hint) != name) hint = hub_->intern(name);
  return hint;
}

inline NameId TraceChannel::lane(std::string_view name) {
  if (pid_ == 0) pid_ = ++hub_->processes_;
  return hub_->intern(name);
}

inline std::string_view TraceChannel::lane_name(const Span& s) const noexcept {
  return hub_->name(s.lane);
}

/// Renders `channel`'s spans grouped by lane as an ASCII Gantt chart, lanes
/// in first-appearance order. `width` is the number of character cells for
/// the full time range.
[[nodiscard]] std::string render_gantt(const TraceChannel& channel,
                                       int width = 100);

}  // namespace vs::obs
