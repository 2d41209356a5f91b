#include "obs/trace_hub.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <unordered_map>

#include "obs/block_writer.h"

namespace vs::obs {

namespace {

const char* span_category(sim::SpanKind kind) {
  switch (kind) {
    case sim::SpanKind::kReconfig: return "reconfig";
    case sim::SpanKind::kExec: return "exec";
    case sim::SpanKind::kBlocked: return "blocked";
    case sim::SpanKind::kTransfer: return "transfer";
    case sim::SpanKind::kMarker: return "marker";
  }
  return "other";
}

const char* flow_ph(FlowPhase phase) {
  switch (phase) {
    case FlowPhase::kStart: return "s";
    case FlowPhase::kStep: return "t";
    case FlowPhase::kEnd: return "f";
  }
  return "t";
}

struct JournalName {
  JournalEvent event;
  const char* name;
};

constexpr JournalName kJournalNames[] = {
    {JournalEvent::kAdmit, "admit"},
    {JournalEvent::kBind, "bind"},
    {JournalEvent::kPreempt, "preempt"},
    {JournalEvent::kCheckpoint, "checkpoint"},
    {JournalEvent::kComplete, "complete"},
    {JournalEvent::kMigrate, "migrate"},
    {JournalEvent::kCrash, "crash"},
    {JournalEvent::kRestore, "restore"},
    {JournalEvent::kShed, "shed"},
    {JournalEvent::kReadmit, "readmit"},
};

/// A channel's record and the channel holding its text.
template <typename Rec>
struct Merged {
  const Rec* rec;
  const TraceChannel* channel;
};

/// One kind of record from every channel, by pointer, in canonical merged
/// order: time, then channel creation order, then append order. The key is
/// unique per record, so an in-place sort gives that order without a
/// stable sort's buffer.
template <typename Rec>
std::vector<Merged<Rec>> merge_by_time(
    const std::deque<TraceChannel>& channels,
    const std::vector<Rec>& (TraceChannel::*records)() const noexcept) {
  std::size_t n = 0;
  for (const TraceChannel& ch : channels) n += (ch.*records)().size();
  std::vector<Merged<Rec>> out;
  out.reserve(n);
  for (const TraceChannel& ch : channels) {
    for (const Rec& r : (ch.*records)()) out.push_back({&r, &ch});
  }
  std::sort(out.begin(), out.end(),
            [](const Merged<Rec>& a, const Merged<Rec>& b) {
              if (a.rec->time != b.rec->time) return a.rec->time < b.rec->time;
              if (a.channel != b.channel) {
                return a.channel->index() < b.channel->index();
              }
              return a.rec < b.rec;  // one channel's records share a vector
            });
  return out;
}

}  // namespace

const char* to_string(JournalEvent e) noexcept {
  for (const auto& entry : kJournalNames) {
    if (entry.event == e) return entry.name;
  }
  return "unknown";
}

bool TraceChannel::trace_on() const noexcept { return hub_->trace_enabled(); }
bool TraceChannel::journal_on() const noexcept {
  return hub_->journal_enabled();
}

ClusterTraceHub::ClusterTraceHub() { intern({}); }

NameId ClusterTraceHub::intern(std::string_view name) {
  if (auto it = name_ids_.find(name); it != name_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<NameId>(names_.size());
  name_ids_.emplace(names_.emplace_back(name), id);
  return id;
}

TraceChannel& ClusterTraceHub::channel(const std::string& name) {
  auto it = channel_index_.find(name);
  if (it != channel_index_.end()) return *it->second;
  channels_.emplace_back(TraceChannel{this, channels_.size()});
  TraceChannel* ch = &channels_.back();
  channel_index_.emplace(name, ch);
  return *ch;
}

void ClusterTraceHub::attach_spans(const std::string& board,
                                   sim::TraceRecorder* rec) {
  auto [it, fresh] = spans_.try_emplace(board);
  if (fresh) board_order_.push_back(board);
  it->second.attached.push_back(rec);
}

void ClusterTraceHub::seal() {
  for (auto& [board, spans] : spans_) {
    for (sim::TraceRecorder* rec : spans.attached) {
      spans.sealed.push_back(std::move(*rec));
      rec->clear();
    }
    spans.attached.clear();
  }
}

void ClusterTraceHub::write_chrome_trace(std::ostream& out) const {
  // Processes in pid order: attached boards in attach order, then any
  // board that only appears as a flow endpoint (e.g. the cluster
  // coordinator). Threads per process: lanes in first-appearance order —
  // span lanes first (recorder attach order), then flow lanes.
  struct Process {
    std::string_view board;
    std::unordered_map<std::string_view, int> tid;
    std::vector<std::string_view> lanes;  ///< in tid order
  };
  std::deque<Process> procs;  // in pid order
  std::unordered_map<std::string_view, int> pid_of;
  auto pid_for = [&](std::string_view board) {
    auto [it, fresh] =
        pid_of.try_emplace(board, static_cast<int>(procs.size()) + 1);
    if (fresh) procs.push_back(Process{board, {}, {}});
    return it->second;
  };
  auto tid_for = [&](int pid, std::string_view lane) {
    Process& p = procs[static_cast<std::size_t>(pid - 1)];
    auto [it, fresh] =
        p.tid.try_emplace(lane, static_cast<int>(p.lanes.size()) + 1);
    if (fresh) p.lanes.push_back(lane);
    return it->second;
  };

  // Spans are placed by their index in placement order: recorders in pid
  // order, then each recorder's records. Each recorder's lane ids map to
  // tids once, at the lane's first span, so tids follow the order in which
  // lanes first appear in the spans.
  struct Source {
    const sim::TraceRecorder* recorder;
    int pid;
    std::uint32_t first;  ///< placement index of the recorder's first span
    std::vector<int> lane_tid;
  };
  struct PlacedSpan {
    sim::SimTime start;
    std::uint32_t index;   ///< placement order
    std::uint32_t source;  ///< its recorder, in `sources`
  };
  std::vector<Source> sources;
  std::size_t span_count = 0;
  for (const std::string& b : board_order_) {
    const int pid = pid_for(b);
    const BoardSpans& spans = spans_.at(b);
    auto add = [&](const sim::TraceRecorder& rec) {
      sources.push_back(
          Source{&rec, pid, static_cast<std::uint32_t>(span_count), {}});
      span_count += rec.size();
    };
    for (const sim::TraceRecorder& rec : spans.sealed) add(rec);
    for (const sim::TraceRecorder* rec : spans.attached) add(*rec);
  }
  assert(span_count <= UINT32_MAX && "span indices are 32-bit");
  std::vector<PlacedSpan> placed;
  placed.reserve(span_count);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    Source& src = sources[s];
    const sim::TraceRecorder& rec = *src.recorder;
    src.lane_tid.assign(rec.lanes().size(), 0);
    for (const sim::TraceRecorder::Record& r : rec.records()) {
      int& tid = src.lane_tid[r.lane];
      if (tid == 0) tid = tid_for(src.pid, rec.lanes()[r.lane]);
      placed.push_back(PlacedSpan{r.start,
                                  static_cast<std::uint32_t>(placed.size()),
                                  static_cast<std::uint32_t>(s)});
    }
  }
  // Placement order ascends in pid, so this is the order of a stable sort
  // by (start, pid), without its buffer.
  std::sort(placed.begin(), placed.end(),
            [](const PlacedSpan& a, const PlacedSpan& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.index < b.index;
            });

  // Flows take their pid and tid from this one interning pass, in merged
  // order. A flow names its board and lane by NameId, so each distinct
  // (board, lane) pair is interned once.
  struct FlowPlace {
    int pid;
    int tid;
  };
  const auto flows = merge_by_time(channels_, &TraceChannel::flows);
  std::vector<FlowPlace> flow_place;
  flow_place.reserve(flows.size());
  std::unordered_map<std::uint64_t, FlowPlace> place_of;
  for (const auto& [f, ch] : flows) {
    const std::uint64_t key = std::uint64_t{f->board} << 32 | f->lane;
    auto [it, fresh] = place_of.try_emplace(key);
    if (fresh) {
      const int pid = pid_for(name(f->board));
      it->second = FlowPlace{pid, tid_for(pid, name(f->lane))};
    }
    flow_place.push_back(it->second);
  }

  BlockWriter w(out);
  w.raw("[");
  bool first = true;
  auto sep = [&] {
    w.raw(first ? "\n" : ",\n");
    first = false;
  };

  for (std::size_t i = 0; i < procs.size(); ++i) {
    const Process& p = procs[i];
    const int pid = static_cast<int>(i) + 1;
    sep();
    w.raw("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":")
        .num(pid)
        .raw(",\"args\":{\"name\":\"")
        .escaped(p.board)
        .raw("\"}}");
    for (std::size_t t = 0; t < p.lanes.size(); ++t) {
      sep();
      w.raw("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":")
          .num(pid)
          .raw(",\"tid\":")
          .num(t + 1)
          .raw(",\"args\":{\"name\":\"")
          .escaped(p.lanes[t])
          .raw("\"}}");
    }
  }

  // The X spans, then the flows. Each span or flow has a process, whose
  // metadata came first, so every one of them follows a record.
  auto format = [&](std::size_t begin, std::size_t end, BlockWriter& cw) {
    for (std::size_t i = begin; i < end; ++i) {
      if (i < placed.size()) {
        const PlacedSpan& p = placed[i];
        const Source& src = sources[p.source];
        const sim::TraceRecorder::Record& r =
            src.recorder->records()[p.index - src.first];
        cw.raw(",\n{\"name\":\"")
            .escaped(src.recorder->label(r))
            .raw("\",\"cat\":\"")
            .raw(span_category(r.kind))
            .raw("\",\"ph\":\"X\",\"pid\":")
            .num(src.pid)
            .raw(",\"tid\":")
            .num(src.lane_tid[r.lane])
            .raw(",\"ts\":")
            .num_scaled(r.start, 3)
            .raw(",\"dur\":")
            .num_scaled(r.end - r.start, 3)
            .raw("}");
        continue;
      }
      const auto& [f, ch] = flows[i - placed.size()];
      const FlowPlace& at = flow_place[i - placed.size()];
      cw.raw(",\n{\"name\":\"")
          .escaped(ch->name(*f))
          .raw("\",\"cat\":\"flow\",\"ph\":\"")
          .raw(flow_ph(f->phase))
          .raw("\",\"id\":")
          .num(f->id)
          .raw(",\"pid\":")
          .num(at.pid)
          .raw(",\"tid\":")
          .num(at.tid)
          .raw(",\"ts\":")
          .num_scaled(f->time, 3);
      if (f->phase == FlowPhase::kEnd) cw.raw(",\"bp\":\"e\"");
      cw.raw("}");
    }
  };
  write_ordered(w, placed.size() + flows.size(), kTraceChunk, format);

  w.raw("\n]\n");
}

void ClusterTraceHub::write_chrome_trace_file(const std::string& path) const {
  write_file(path, "trace file",
             [this](std::ostream& out) { write_chrome_trace(out); });
}

void ClusterTraceHub::write_journal(std::ostream& out) const {
  const auto records =
      merge_by_time(channels_, &TraceChannel::journal_records);
  BlockWriter w(out);
  write_ordered(w, records.size(), kJournalChunk,
                [&](std::size_t begin, std::size_t end, BlockWriter& cw) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto& [j, ch] = records[i];
      cw.raw("{\"t_ns\":")
          .num(j->time)
          .raw(",\"t_ms\":")
          .num_scaled(j->time, 6)
          .raw(",\"event\":\"")
          .raw(to_string(j->event))
          .raw("\",\"board\":\"")
          .escaped(name(j->board))
          .raw("\"");
      if (j->app >= 0) cw.raw(",\"app\":").num(j->app);
      if (j->spec != 0) {
        cw.raw(",\"spec\":\"").escaped(name(j->spec)).raw("\"");
      }
      if (j->flow != 0) cw.raw(",\"flow\":").num(j->flow);
      if (j->detail_len != 0) {
        cw.raw(",\"detail\":\"").escaped(ch->detail(*j)).raw("\"");
      }
      cw.raw("}\n");
    }
  });
}

void ClusterTraceHub::write_journal_file(const std::string& path) const {
  write_file(path, "journal file",
             [this](std::ostream& out) { write_journal(out); });
}

}  // namespace vs::obs
