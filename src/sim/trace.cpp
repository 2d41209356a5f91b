#include "sim/trace.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/table.h"

namespace vs::sim {

namespace {
char glyph(SpanKind kind) {
  switch (kind) {
    case SpanKind::kReconfig: return '#';
    case SpanKind::kExec: return '=';
    case SpanKind::kBlocked: return '.';
    case SpanKind::kTransfer: return '>';
    case SpanKind::kMarker: return '|';
  }
  return '?';
}
}  // namespace

std::vector<Span> TraceRecorder::spans() const {
  std::vector<Span> out;
  out.reserve(records_.size());
  for (const Record& r : records_) {
    out.push_back(Span{r.start, r.end, lanes_[r.lane], std::string(label(r)),
                       r.kind});
  }
  return out;
}

std::string render_gantt(const std::vector<Span>& spans, int width) {
  if (spans.empty()) return "(empty trace)\n";
  SimTime t0 = spans.front().start;
  SimTime t1 = spans.front().end;
  for (const Span& s : spans) {
    t0 = std::min(t0, s.start);
    t1 = std::max(t1, s.end);
  }
  if (t1 <= t0) t1 = t0 + 1;
  double scale = static_cast<double>(width) / static_cast<double>(t1 - t0);

  // Stable lane order: first appearance in the span list.
  std::vector<std::string> lane_order;
  std::map<std::string, std::string> rows;
  std::size_t lane_width = 0;
  for (const Span& s : spans) {
    if (!rows.count(s.lane)) {
      lane_order.push_back(s.lane);
      rows[s.lane] = std::string(static_cast<std::size_t>(width), ' ');
      lane_width = std::max(lane_width, s.lane.size());
    }
    auto& row = rows[s.lane];
    auto c0 = static_cast<int>(static_cast<double>(s.start - t0) * scale);
    auto c1 = static_cast<int>(static_cast<double>(s.end - t0) * scale);
    c0 = std::clamp(c0, 0, width - 1);
    c1 = std::clamp(c1, c0, width - 1);
    for (int c = c0; c <= c1; ++c) {
      row[static_cast<std::size_t>(c)] = glyph(s.kind);
    }
    // Overlay a short label at the start of the span when room permits.
    std::string tag = s.label.substr(0, static_cast<std::size_t>(
                                            std::max(0, c1 - c0 - 1)));
    for (std::size_t i = 0; i < tag.size(); ++i) {
      row[static_cast<std::size_t>(c0) + 1 + i] = tag[i];
    }
  }

  std::ostringstream out;
  out << "time: " << util::fmt_duration_ns(t0) << " .. "
      << util::fmt_duration_ns(t1)
      << "   (#=reconfig  ==exec  .=blocked  >=transfer)\n";
  for (const auto& lane : lane_order) {
    out << "  ";
    out << lane << std::string(lane_width - lane.size(), ' ') << " |"
        << rows[lane] << "|\n";
  }
  return out.str();
}

}  // namespace vs::sim
