#include "obs/trace_hub.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "obs/export.h"

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

// Shortest round-trip decimal for microsecond timestamps; matches the
// fmt_double convention in export.cpp rather than ostream's 6-digit default.
std::string fmt_num(double v) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "0";
  return std::string(buf, ptr);
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
  for (const TraceChannel& ch : channels_) {
    out.insert(out.end(), ch.journal().begin(), ch.journal().end());
  }
  // Stable: equal timestamps keep channel-creation then append order.
  std::stable_sort(out.begin(), out.end(),
                   [](const JournalRecord& a, const JournalRecord& b) {
                     return a.time < b.time;
                   });
  return out;
}

std::vector<FlowPoint> ClusterTraceHub::merged_flows() const {
  std::vector<FlowPoint> out;
  for (const TraceChannel& ch : channels_) {
    out.insert(out.end(), ch.flows().begin(), ch.flows().end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlowPoint& a, const FlowPoint& b) {
                     return a.time < b.time;
                   });
  return out;
}

void ClusterTraceHub::write_chrome_trace(std::ostream& out) const {
  const std::vector<FlowPoint> flows = merged_flows();

  // Processes: attached boards in attach order, then any board that only
  // appears as a flow endpoint (e.g. the cluster coordinator).
  std::vector<std::string> boards = board_order_;
  std::map<std::string, int> pid;
  for (const std::string& b : boards) {
    pid.emplace(b, static_cast<int>(pid.size()) + 1);
  }
  for (const FlowPoint& f : flows) {
    if (pid.emplace(f.board, static_cast<int>(pid.size()) + 1).second) {
      boards.push_back(f.board);
    }
  }

  // Threads: per board, lanes in first-appearance order — span lanes first
  // (recorder attach order), then flow lanes.
  std::map<std::string, std::map<std::string, int>> lane_tid;
  std::map<std::string, std::vector<std::string>> lane_order;
  auto intern_lane = [&](const std::string& board, const std::string& lane) {
    auto& tids = lane_tid[board];
    auto [it, fresh] = tids.emplace(lane, static_cast<int>(tids.size()) + 1);
    if (fresh) lane_order[board].push_back(lane);
    return it->second;
  };

  struct PlacedSpan {
    const sim::Span* span;
    int pid;
    int tid;
  };
  std::vector<sim::Span> storage;  // ring-unrolled copies stay alive
  std::vector<PlacedSpan> placed;
  std::vector<std::pair<std::size_t, std::size_t>> board_ranges;
  for (const std::string& b : board_order_) {
    std::size_t begin = storage.size();
    if (auto sit = sealed_spans_.find(b); sit != sealed_spans_.end()) {
      storage.insert(storage.end(), sit->second.begin(), sit->second.end());
    }
    for (const sim::TraceRecorder* rec : recorders_.at(b)) {
      std::vector<sim::Span> spans = rec->ordered_spans();
      storage.insert(storage.end(), spans.begin(), spans.end());
    }
    board_ranges.emplace_back(begin, storage.size());
  }
  for (std::size_t bi = 0; bi < board_order_.size(); ++bi) {
    const std::string& b = board_order_[bi];
    for (std::size_t i = board_ranges[bi].first; i < board_ranges[bi].second;
         ++i) {
      const sim::Span& s = storage[i];
      placed.push_back(PlacedSpan{&s, pid[b], intern_lane(b, s.lane)});
    }
  }
  for (const FlowPoint& f : flows) intern_lane(f.board, f.lane);
  std::stable_sort(placed.begin(), placed.end(),
                   [](const PlacedSpan& a, const PlacedSpan& b) {
                     if (a.span->start != b.span->start) {
                       return a.span->start < b.span->start;
                     }
                     return a.pid < b.pid;
                   });

  out << "[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };

  for (const std::string& b : boards) {
    sep();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid[b]
        << ",\"args\":{\"name\":\"" << json_escape(b) << "\"}}";
    auto rit = recorders_.find(b);
    if (rit != recorders_.end()) {
      std::uint64_t dropped = 0;
      if (auto dit = sealed_dropped_.find(b); dit != sealed_dropped_.end()) {
        dropped += dit->second;
      }
      for (const sim::TraceRecorder* rec : rit->second) {
        dropped += rec->dropped();
      }
      sep();
      out << "{\"name\":\"vs_dropped_spans\",\"ph\":\"M\",\"pid\":" << pid[b]
          << ",\"args\":{\"dropped\":" << dropped << "}}";
    }
    for (const std::string& lane : lane_order[b]) {
      sep();
      out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid[b]
          << ",\"tid\":" << lane_tid[b][lane] << ",\"args\":{\"name\":\""
          << json_escape(lane) << "\"}}";
    }
  }

  for (const PlacedSpan& p : placed) {
    sep();
    out << "{\"name\":\"" << json_escape(p.span->label) << "\",\"cat\":\""
        << span_category(p.span->kind) << "\",\"ph\":\"X\",\"pid\":" << p.pid
        << ",\"tid\":" << p.tid << ",\"ts\":"
        << fmt_num(static_cast<double>(p.span->start) / 1e3) << ",\"dur\":"
        << fmt_num(static_cast<double>(p.span->end - p.span->start) / 1e3)
        << "}";
  }

  for (const FlowPoint& f : flows) {
    sep();
    out << "{\"name\":\"" << json_escape(f.name)
        << "\",\"cat\":\"flow\",\"ph\":\"" << flow_ph(f.phase)
        << "\",\"id\":" << f.id << ",\"pid\":" << pid[f.board]
        << ",\"tid\":" << lane_tid[f.board][f.lane] << ",\"ts\":"
        << fmt_num(static_cast<double>(f.time) / 1e3);
    if (f.phase == FlowPhase::kEnd) out << ",\"bp\":\"e\"";
    out << "}";
  }

  out << "\n]\n";
}

void ClusterTraceHub::write_chrome_trace_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file " + path);
  write_chrome_trace(out);
}

void ClusterTraceHub::write_journal(std::ostream& out) const {
  for (const JournalRecord& r : merged_journal()) {
    out << "{\"t_ns\":" << r.time
        << ",\"t_ms\":" << fmt_num(sim::to_ms(r.time)) << ",\"event\":\""
        << to_string(r.event) << "\",\"board\":\"" << json_escape(r.board)
        << "\"";
    if (r.app >= 0) out << ",\"app\":" << r.app;
    if (!r.spec.empty()) out << ",\"spec\":\"" << json_escape(r.spec) << "\"";
    if (r.flow != 0) out << ",\"flow\":" << r.flow;
    if (!r.detail.empty()) {
      out << ",\"detail\":\"" << json_escape(r.detail) << "\"";
    }
    out << "}\n";
  }
}

void ClusterTraceHub::write_journal_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open journal file " + path);
  write_journal(out);
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
