#include "obs/trace_hub.h"

#include <algorithm>
#include <charconv>
#include <deque>
#include <istream>
#include <map>

#include "obs/block_writer.h"

namespace vs::obs {

namespace {

const char* span_category(sim::SpanKind kind) {
  switch (kind) {
    case sim::SpanKind::kReconfig: return "reconfig";
    case sim::SpanKind::kExec: return "exec";
    case sim::SpanKind::kCoreOp: return "core";
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

/// One kind of record from every channel, by pointer, in canonical merged
/// order: time, then channel creation order, then append order.
template <typename Rec>
std::vector<const Rec*> merge_by_time(
    const std::deque<TraceChannel>& channels,
    const std::vector<Rec>& (TraceChannel::*records)() const noexcept) {
  std::vector<const Rec*> out;
  for (const TraceChannel& ch : channels) {
    for (const Rec& r : (ch.*records)()) out.push_back(&r);
  }
  std::stable_sort(out.begin(), out.end(), [](const Rec* a, const Rec* b) {
    return a->time < b->time;
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

bool journal_event_from_string(const std::string& name,
                               JournalEvent& out) noexcept {
  for (const auto& entry : kJournalNames) {
    if (name == entry.name) {
      out = entry.event;
      return true;
    }
  }
  return false;
}

bool TraceChannel::trace_on() const noexcept { return hub_->trace_enabled(); }
bool TraceChannel::journal_on() const noexcept {
  return hub_->journal_enabled();
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
                                   const sim::TraceRecorder* rec) {
  auto it = recorders_.find(board);
  if (it == recorders_.end()) {
    board_order_.push_back(board);
    it = recorders_.emplace(board, std::vector<const sim::TraceRecorder*>{})
             .first;
  }
  it->second.push_back(rec);
}

void ClusterTraceHub::seal() {
  for (auto& [board, recs] : recorders_) {
    std::vector<sim::Span>& dst = sealed_spans_[board];
    std::uint64_t& dropped = sealed_dropped_[board];
    for (const sim::TraceRecorder* rec : recs) {
      std::vector<sim::Span> spans = rec->ordered_spans();
      dst.insert(dst.end(), std::make_move_iterator(spans.begin()),
                 std::make_move_iterator(spans.end()));
      dropped += rec->dropped();
    }
    recs.clear();
  }
}

std::vector<JournalRecord> ClusterTraceHub::merged_journal() const {
  std::vector<JournalRecord> out;
  for (const JournalRecord* r :
       merge_by_time(channels_, &TraceChannel::journal)) {
    out.push_back(*r);
  }
  return out;
}

std::vector<FlowPoint> ClusterTraceHub::merged_flows() const {
  std::vector<FlowPoint> out;
  for (const FlowPoint* f : merge_by_time(channels_, &TraceChannel::flows)) {
    out.push_back(*f);
  }
  return out;
}

void ClusterTraceHub::write_chrome_trace(std::ostream& out) const {
  // Processes in pid order: attached boards in attach order, then any
  // board that only appears as a flow endpoint (e.g. the cluster
  // coordinator). Threads per process: lanes in first-appearance order —
  // span lanes first (recorder attach order), then flow lanes.
  struct Process {
    const std::string* board;  ///< key in pid_of
    std::map<std::string, int> tid;
    std::vector<const std::string*> lanes;  ///< keys in tid, in tid order
  };
  std::deque<Process> procs;  // in pid order
  std::map<std::string, int> pid_of;
  auto pid_for = [&](const std::string& board) {
    auto [it, fresh] =
        pid_of.try_emplace(board, static_cast<int>(procs.size()) + 1);
    if (fresh) procs.push_back(Process{&it->first, {}, {}});
    return it->second;
  };
  auto tid_for = [&](int pid, const std::string& lane) {
    Process& p = procs[static_cast<std::size_t>(pid - 1)];
    auto [it, fresh] =
        p.tid.try_emplace(lane, static_cast<int>(p.lanes.size()) + 1);
    if (fresh) p.lanes.push_back(&it->first);
    return it->second;
  };

  // Spans are placed by pointer: sealed spans where the hub keeps them,
  // spans of recorders still attached from ring-unrolled copies.
  struct PlacedSpan {
    sim::SimTime start;
    int pid;
    int tid;
    const sim::Span* span;
  };
  std::deque<std::vector<sim::Span>> live;
  std::vector<PlacedSpan> placed;
  for (const std::string& b : board_order_) {
    const int pid = pid_for(b);
    auto place = [&](const std::vector<sim::Span>& spans) {
      for (const sim::Span& s : spans) {
        placed.push_back(PlacedSpan{s.start, pid, tid_for(pid, s.lane), &s});
      }
    };
    if (auto sit = sealed_spans_.find(b); sit != sealed_spans_.end()) {
      place(sit->second);
    }
    for (const sim::TraceRecorder* rec : recorders_.at(b)) {
      place(live.emplace_back(rec->ordered_spans()));
    }
  }
  std::stable_sort(placed.begin(), placed.end(),
                   [](const PlacedSpan& a, const PlacedSpan& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.pid < b.pid;
                   });

  // Flows take their pid and tid from this one interning pass.
  struct PlacedFlow {
    const FlowPoint* flow;
    int pid;
    int tid;
  };
  std::vector<PlacedFlow> flows;
  for (const FlowPoint* f : merge_by_time(channels_, &TraceChannel::flows)) {
    const int pid = pid_for(f->board);
    flows.push_back(PlacedFlow{f, pid, tid_for(pid, f->lane)});
  }

  BlockWriter w(out);
  w.raw("[");
  bool first = true;
  auto sep = [&] {
    w.end_record();
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
        .escaped(*p.board)
        .raw("\"}}");
    if (auto rit = recorders_.find(*p.board); rit != recorders_.end()) {
      std::uint64_t dropped = 0;
      if (auto dit = sealed_dropped_.find(*p.board);
          dit != sealed_dropped_.end()) {
        dropped += dit->second;
      }
      for (const sim::TraceRecorder* rec : rit->second) {
        dropped += rec->dropped();
      }
      sep();
      w.raw("{\"name\":\"vs_dropped_spans\",\"ph\":\"M\",\"pid\":")
          .num(pid)
          .raw(",\"args\":{\"dropped\":")
          .num(dropped)
          .raw("}}");
    }
    for (std::size_t t = 0; t < p.lanes.size(); ++t) {
      sep();
      w.raw("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":")
          .num(pid)
          .raw(",\"tid\":")
          .num(t + 1)
          .raw(",\"args\":{\"name\":\"")
          .escaped(*p.lanes[t])
          .raw("\"}}");
    }
  }

  for (const PlacedSpan& p : placed) {
    sep();
    w.raw("{\"name\":\"")
        .escaped(p.span->label)
        .raw("\",\"cat\":\"")
        .raw(span_category(p.span->kind))
        .raw("\",\"ph\":\"X\",\"pid\":")
        .num(p.pid)
        .raw(",\"tid\":")
        .num(p.tid)
        .raw(",\"ts\":")
        .num(static_cast<double>(p.start) / 1e3)
        .raw(",\"dur\":")
        .num(static_cast<double>(p.span->end - p.start) / 1e3)
        .raw("}");
  }

  for (const PlacedFlow& p : flows) {
    const FlowPoint& f = *p.flow;
    sep();
    w.raw("{\"name\":\"")
        .escaped(f.name)
        .raw("\",\"cat\":\"flow\",\"ph\":\"")
        .raw(flow_ph(f.phase))
        .raw("\",\"id\":")
        .num(f.id)
        .raw(",\"pid\":")
        .num(p.pid)
        .raw(",\"tid\":")
        .num(p.tid)
        .raw(",\"ts\":")
        .num(static_cast<double>(f.time) / 1e3);
    if (f.phase == FlowPhase::kEnd) w.raw(",\"bp\":\"e\"");
    w.raw("}");
  }

  w.raw("\n]\n");
}

void ClusterTraceHub::write_chrome_trace_file(const std::string& path) const {
  write_file(path, "trace file",
             [this](std::ostream& out) { write_chrome_trace(out); });
}

void ClusterTraceHub::write_journal(std::ostream& out) const {
  BlockWriter w(out);
  for (const JournalRecord* r :
       merge_by_time(channels_, &TraceChannel::journal)) {
    w.raw("{\"t_ns\":")
        .num(r->time)
        .raw(",\"t_ms\":")
        .num(sim::to_ms(r->time))
        .raw(",\"event\":\"")
        .raw(to_string(r->event))
        .raw("\",\"board\":\"")
        .escaped(r->board)
        .raw("\"");
    if (r->app >= 0) w.raw(",\"app\":").num(r->app);
    if (!r->spec.empty()) w.raw(",\"spec\":\"").escaped(r->spec).raw("\"");
    if (r->flow != 0) w.raw(",\"flow\":").num(r->flow);
    if (!r->detail.empty()) {
      w.raw(",\"detail\":\"").escaped(r->detail).raw("\"");
    }
    w.raw("}\n");
    w.end_record();
  }
}

void ClusterTraceHub::write_journal_file(const std::string& path) const {
  write_file(path, "journal file",
             [this](std::ostream& out) { write_journal(out); });
}

namespace {

// Minimal extraction for the journal's own flat JSONL encoding; not a
// general JSON parser.
bool extract_raw(const std::string& line, const std::string& key,
                 std::string& out) {
  std::string needle = "\"" + key + "\":";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  if (pos < line.size() && line[pos] == '"') {
    ++pos;
    std::string value;
    while (pos < line.size()) {
      char c = line[pos];
      if (c == '"') break;
      if (c == '\\' && pos + 1 < line.size()) {
        char esc = line[pos + 1];
        pos += 2;
        switch (esc) {
          case 'n': value += '\n'; break;
          case 't': value += '\t'; break;
          case '"': value += '"'; break;
          case '\\': value += '\\'; break;
          case 'u': {
            if (pos + 4 <= line.size()) {
              unsigned code = 0;
              std::from_chars(line.data() + pos, line.data() + pos + 4, code,
                              16);
              value += static_cast<char>(code);
              pos += 4;
            }
            break;
          }
          default: value += esc;
        }
        continue;
      }
      value += c;
      ++pos;
    }
    out = std::move(value);
    return true;
  }
  auto end = line.find_first_of(",}", pos);
  if (end == std::string::npos) return false;
  out = line.substr(pos, end - pos);
  return true;
}

}  // namespace

std::vector<JournalRecord> parse_journal(std::istream& in) {
  std::vector<JournalRecord> out;
  std::string line;
  while (std::getline(in, line)) {
    std::string raw;
    JournalRecord r;
    if (!extract_raw(line, "event", raw)) continue;
    if (!journal_event_from_string(raw, r.event)) continue;
    if (!extract_raw(line, "t_ns", raw)) continue;
    std::from_chars(raw.data(), raw.data() + raw.size(), r.time);
    if (extract_raw(line, "board", raw)) r.board = raw;
    if (extract_raw(line, "app", raw)) {
      std::from_chars(raw.data(), raw.data() + raw.size(), r.app);
    }
    if (extract_raw(line, "spec", raw)) r.spec = raw;
    if (extract_raw(line, "flow", raw)) {
      std::from_chars(raw.data(), raw.data() + raw.size(), r.flow);
    }
    if (extract_raw(line, "detail", raw)) r.detail = raw;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace vs::obs
