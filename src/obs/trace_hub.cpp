#include "obs/trace_hub.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <sstream>
#include <unordered_map>

#include "obs/block_writer.h"
#include "util/table.h"

namespace vs::obs {

namespace {

const char* span_category(SpanKind kind) {
  switch (kind) {
    case SpanKind::kReconfig: return "reconfig";
    case SpanKind::kExec: return "exec";
    case SpanKind::kBlocked: return "blocked";
    case SpanKind::kTransfer: return "transfer";
    case SpanKind::kMarker: return "marker";
  }
  return "other";
}

char span_glyph(SpanKind kind) {
  switch (kind) {
    case SpanKind::kReconfig: return '#';
    case SpanKind::kExec: return '=';
    case SpanKind::kBlocked: return '.';
    case SpanKind::kTransfer: return '>';
    case SpanKind::kMarker: return '|';
  }
  return '?';
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
  channels_.emplace_back(TraceChannel{this, channels_.size(), intern(name)});
  TraceChannel* ch = &channels_.back();
  channel_index_.emplace(name, ch);
  return *ch;
}

void ClusterTraceHub::write_chrome_trace(std::ostream& out) const {
  // Processes in pid order: board channels in the order they first
  // resolved a lane, then any board that only appears as a flow endpoint
  // (e.g. the cluster coordinator). Threads per process: lanes in
  // first-appearance order — span lanes first, then flow lanes.
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

  // Spans are placed by their index in placement order: board channels in
  // pid order, then each channel's spans in append order. A lane's tid is
  // set at its first span, so tids follow the order in which lanes first
  // appear in the spans.
  struct Source {
    const TraceChannel* channel = nullptr;
    std::uint32_t first = 0;  ///< placement index of the channel's first span
    std::vector<int> lane_tid;  ///< by lane NameId
  };
  struct PlacedSpan {
    sim::SimTime start;
    std::uint32_t index;   ///< placement order
    std::uint32_t source;  ///< its channel, in `sources`; pid = source + 1
  };
  std::vector<Source> sources(static_cast<std::size_t>(processes_));
  for (const TraceChannel& ch : channels_) {
    if (ch.pid_ != 0) {
      sources[static_cast<std::size_t>(ch.pid_ - 1)].channel = &ch;
    }
  }
  std::size_t span_count = 0;
  for (Source& src : sources) {
    pid_for(name(src.channel->source_));
    src.first = static_cast<std::uint32_t>(span_count);
    span_count += src.channel->spans().size();
  }
  assert(span_count <= UINT32_MAX && "span indices are 32-bit");
  std::vector<PlacedSpan> placed;
  placed.reserve(span_count);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    Source& src = sources[s];
    src.lane_tid.assign(names_.size(), 0);
    for (const TraceChannel::Span& r : src.channel->spans()) {
      int& tid = src.lane_tid[r.lane];
      if (tid == 0) tid = tid_for(static_cast<int>(s) + 1, name(r.lane));
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
        const TraceChannel::Span& r =
            src.channel->spans()[p.index - src.first];
        cw.raw(",\n{\"name\":\"")
            .escaped(src.channel->label(r))
            .raw("\",\"cat\":\"")
            .raw(span_category(r.kind))
            .raw("\",\"ph\":\"X\",\"pid\":")
            .num(p.source + 1)
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

std::string render_gantt(const TraceChannel& channel, int width) {
  const std::vector<TraceChannel::Span>& spans = channel.spans();
  if (spans.empty()) return "(empty trace)\n";
  sim::SimTime t0 = spans.front().start;
  sim::SimTime t1 = spans.front().end;
  for (const TraceChannel::Span& s : spans) {
    t0 = std::min(t0, s.start);
    t1 = std::max(t1, s.end);
  }
  if (t1 <= t0) t1 = t0 + 1;
  double scale = static_cast<double>(width) / static_cast<double>(t1 - t0);

  // One row per lane, in order of the lane's first span.
  struct Row {
    NameId lane;
    std::string_view name;
    std::string cells;
  };
  std::vector<Row> rows;
  std::size_t lane_width = 0;
  for (const TraceChannel::Span& s : spans) {
    auto row = std::find_if(rows.begin(), rows.end(),
                            [&](const Row& r) { return r.lane == s.lane; });
    if (row == rows.end()) {
      row = rows.insert(rows.end(),
                        Row{s.lane, channel.lane_name(s),
                            std::string(static_cast<std::size_t>(width), ' ')});
      lane_width = std::max(lane_width, row->name.size());
    }
    auto c0 = static_cast<int>(static_cast<double>(s.start - t0) * scale);
    auto c1 = static_cast<int>(static_cast<double>(s.end - t0) * scale);
    c0 = std::clamp(c0, 0, width - 1);
    c1 = std::clamp(c1, c0, width - 1);
    for (int c = c0; c <= c1; ++c) {
      row->cells[static_cast<std::size_t>(c)] = span_glyph(s.kind);
    }
    // Overlay a short label at the start of the span when room permits.
    std::string_view tag = channel.label(s).substr(
        0, static_cast<std::size_t>(std::max(0, c1 - c0 - 1)));
    for (std::size_t i = 0; i < tag.size(); ++i) {
      row->cells[static_cast<std::size_t>(c0) + 1 + i] = tag[i];
    }
  }

  std::ostringstream out;
  out << "time: " << util::fmt_duration_ns(t0) << " .. "
      << util::fmt_duration_ns(t1)
      << "   (#=reconfig  ==exec  .=blocked  >=transfer)\n";
  for (const Row& row : rows) {
    out << "  " << row.name << std::string(lane_width - row.name.size(), ' ')
        << " |" << row.cells << "|\n";
  }
  return out.str();
}

}  // namespace vs::obs
