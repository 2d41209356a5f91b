// Execution trace recording for timeline rendering (Fig 2 reproduction) and
// debugging. Components append spans (start, end, lane, label); the ASCII
// Gantt renderer in examples/pipeline_timeline.cpp and the trace hub's
// Chrome-trace writer (obs/trace_hub.h) consume them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"
#include "util/text_arena.h"

namespace vs::sim {

enum class SpanKind {
  kReconfig,   ///< partial reconfiguration of a slot
  kExec,       ///< batch-item execution in a slot
  kBlocked,    ///< time a ready action spent blocked (PR queue / core busy)
  kTransfer,   ///< DMA / Aurora data movement
  kMarker,     ///< instantaneous annotation
};

struct Span {
  SimTime start = 0;
  SimTime end = 0;
  std::string lane;   ///< e.g. "slot L2", "core PS0", "aurora"
  std::string label;  ///< e.g. "App1.T2 PR", "App2.T1 B3"
  SpanKind kind = SpanKind::kMarker;
};

/// Index of a lane in one TraceRecorder's lane table.
using LaneId = std::uint32_t;

/// Append-only span log. Disabled by default (no allocation cost in
/// benchmark runs); enable for examples and debugging. Each span costs one
/// 32-byte Record; its label lives in the recorder's text arena and its
/// lane is an index into a table of the recorder's few lane names.
class TraceRecorder {
 public:
  struct Record {
    SimTime start = 0;
    SimTime end = 0;
    std::uint32_t label_at = 0;  ///< label offset in the text arena
    std::uint32_t label_len = 0;
    LaneId lane = 0;
    SpanKind kind = SpanKind::kMarker;
  };

  void enable(bool on = true) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Id of lane `name`, interned on first request: lanes number in order of
  /// first appearance. A linear scan — a recorder has a handful of lanes.
  [[nodiscard]] LaneId lane(std::string_view name) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_[i] == name) return static_cast<LaneId>(i);
    }
    lanes_.emplace_back(name);
    return static_cast<LaneId>(lanes_.size() - 1);
  }

  /// Appends a span on lane `lane` whose label is the concatenation of
  /// `label`'s pieces (strings, characters, integers), formatted straight
  /// into the text arena.
  template <typename... Piece>
  void add(SimTime start, SimTime end, LaneId lane, SpanKind kind,
           const Piece&... label) {
    if (!enabled_) return;
    const auto [at, len] = text_.append(label...);
    records_.push_back(Record{start, end, at, len, lane, kind});
  }

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }
  /// Lane names, indexed by LaneId.
  [[nodiscard]] const std::vector<std::string>& lanes() const noexcept {
    return lanes_;
  }
  [[nodiscard]] std::string_view label(const Record& r) const noexcept {
    return text_.view(r.label_at, r.label_len);
  }
  /// The log as self-contained spans, in recording order.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Bytes the span records and their labels hold, spare capacity
  /// included.
  [[nodiscard]] std::size_t reserved_bytes() const noexcept {
    return records_.capacity() * sizeof(Record) + text_.capacity();
  }
  /// Drops all spans and lanes AND releases their memory: long sweep runs
  /// that toggle tracing must not retain peak span memory.
  void clear() noexcept {
    std::vector<Record>().swap(records_);
    std::vector<std::string>().swap(lanes_);
    text_.clear();
  }

 private:
  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<std::string> lanes_;
  util::TextArena text_;
};
static_assert(sizeof(TraceRecorder::Record) == 32);

/// Renders spans grouped by lane as an ASCII Gantt chart. `width` is the
/// number of character cells for the full time range.
[[nodiscard]] std::string render_gantt(const std::vector<Span>& spans,
                                       int width = 100);

}  // namespace vs::sim
