#include "obs/export.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "obs/block_writer.h"

namespace vs::obs {
namespace {

/// Shortest round-trip decimal representation of a double (to_chars), so
/// exports parse back to the exact value and carry no trailing noise.
std::string fmt_double(double v) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc{}) return "0";
  return std::string(buf, ptr);
}

/// Prometheus label-value escaping per the text exposition format: inside
/// a quoted label value, backslash, double quote and newline must be
/// escaped (and nothing else).
std::string label_escape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Prometheus label block: `{k="v",...}` with `le` appended when present;
/// empty string when there are no dimensions at all.
std::string label_block(const Labels& labels, const std::string* le) {
  if (labels.empty() && le == nullptr) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + label_escape(v) + "\"";
  }
  if (le != nullptr) {
    if (!first) out += ',';
    out += "le=\"" + *le + "\"";
  }
  out += '}';
  return out;
}

/// Emits `# TYPE` once per metric name, in first-appearance order.
void emit_type(std::ostream& out, std::set<std::string>& seen,
               const std::string& name, const char* type) {
  if (seen.insert(name).second) {
    out << "# TYPE " << name << ' ' << type << '\n';
  }
}

void append_json_labels(std::string& out, const Labels& labels) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(k) + "\":\"" + json_escape(v) + '"';
  }
  out += '}';
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

void write_prometheus(const MetricsRegistry& registry, std::ostream& out) {
  std::set<std::string> seen;
  for (const auto& row : registry.counters()) {
    emit_type(out, seen, row.name, "counter");
    out << row.name << label_block(row.labels, nullptr) << ' '
        << row.cell.value() << '\n';
  }
  for (const auto& row : registry.gauges()) {
    emit_type(out, seen, row.name, "gauge");
    out << row.name << label_block(row.labels, nullptr) << ' '
        << fmt_double(row.cell.value()) << '\n';
  }
  for (const auto& row : registry.histograms()) {
    emit_type(out, seen, row.name, "histogram");
    const auto& bounds = row.cell.bounds();
    const auto& counts = row.cell.bucket_counts();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += counts[i];
      std::string le = fmt_double(bounds[i]);
      out << row.name << "_bucket" << label_block(row.labels, &le) << ' '
          << cumulative << '\n';
    }
    std::string inf = "+Inf";
    out << row.name << "_bucket" << label_block(row.labels, &inf) << ' '
        << row.cell.count() << '\n';
    out << row.name << "_sum" << label_block(row.labels, nullptr) << ' '
        << fmt_double(row.cell.sum()) << '\n';
    out << row.name << "_count" << label_block(row.labels, nullptr) << ' '
        << row.cell.count() << '\n';
  }
}

void write_timeseries_jsonl(const Sampler& sampler,
                            const MetricsRegistry& registry,
                            std::ostream& out) {
  // Column keys, escaped once per export as `,"<full name>":`. The
  // sampler's change log already holds exactly the values each line
  // carries; a counter's column id has Sampler::kCounterColumn set.
  auto keys_of = [](const auto& rows) {
    std::vector<std::string> keys;
    keys.reserve(rows.size());
    for (const auto& row : rows) {
      std::string key = ",\"";
      append_json_escaped(key,
                          MetricsRegistry::full_name(row.name, row.labels));
      key += "\":";
      keys.push_back(std::move(key));
    }
    return keys;
  };
  const std::vector<std::string> gauge_keys = keys_of(registry.gauges());
  const std::vector<std::string> counter_keys = keys_of(registry.counters());

  BlockWriter w(out);
  write_ordered(w, sampler.rows(), kSeriesChunkRows,
                [&](std::size_t begin, std::size_t end, BlockWriter& cw) {
    for (std::size_t r = begin; r < end; ++r) {
      cw.raw("{\"t_ms\":").num_scaled(sampler.row_time(r), 6);
      const auto columns = sampler.changed_columns(r);
      const auto values = sampler.changed_values(r);
      for (std::size_t i = 0; i < columns.size(); ++i) {
        const std::uint32_t c = columns[i];
        cw.raw((c & Sampler::kCounterColumn) != 0
                   ? counter_keys[c & ~Sampler::kCounterColumn]
                   : gauge_keys[c])
            .num(values[i]);
      }
      cw.raw("}\n");
    }
  });
}

void write_run_report(const MetricsRegistry& registry, const RunInfo& info,
                      const Sampler* sampler, std::ostream& out) {
  out << "{\n  \"experiment\": \"" << json_escape(info.experiment) << "\",\n";
  out << "  \"config\": {";
  bool first = true;
  for (const auto& [k, v] : info.config) {
    if (!first) out << ", ";
    first = false;
    out << '"' << json_escape(k) << "\": \"" << json_escape(v) << '"';
  }
  out << "},\n";

  out << "  \"counters\": [\n";
  first = true;
  for (const auto& row : registry.counters()) {
    if (!first) out << ",\n";
    first = false;
    std::string labels;
    append_json_labels(labels, row.labels);
    out << "    {\"name\": \"" << json_escape(row.name)
        << "\", \"labels\": " << labels << ", \"value\": " << row.cell.value()
        << "}";
  }
  out << "\n  ],\n";

  out << "  \"gauges\": [\n";
  first = true;
  for (const auto& row : registry.gauges()) {
    if (!first) out << ",\n";
    first = false;
    std::string labels;
    append_json_labels(labels, row.labels);
    out << "    {\"name\": \"" << json_escape(row.name)
        << "\", \"labels\": " << labels
        << ", \"value\": " << fmt_double(row.cell.value()) << "}";
  }
  out << "\n  ],\n";

  out << "  \"histograms\": [\n";
  first = true;
  for (const auto& row : registry.histograms()) {
    if (!first) out << ",\n";
    first = false;
    std::string labels;
    append_json_labels(labels, row.labels);
    const Histogram& h = row.cell;
    out << "    {\"name\": \"" << json_escape(row.name)
        << "\", \"labels\": " << labels << ", \"count\": " << h.count()
        << ", \"sum\": " << fmt_double(h.sum())
        << ", \"mean\": " << fmt_double(h.mean())
        << ", \"p50\": " << fmt_double(h.quantile(0.50))
        << ", \"p95\": " << fmt_double(h.quantile(0.95))
        << ", \"p99\": " << fmt_double(h.quantile(0.99))
        << ", \"max\": " << fmt_double(h.max()) << "}";
  }
  out << "\n  ],\n";

  // Per-phase response-time breakdown: vs_app_phase_ms rows merged
  // across boards, one table row per phase label in first-appearance order.
  // Emitted only when phase accounting registered its histograms, so every
  // phase-free report stays byte-identical.
  std::vector<std::pair<std::string, Histogram>> phases;
  for (const auto& row : registry.histograms()) {
    if (row.name != "vs_app_phase_ms") continue;
    std::string phase;
    for (const auto& [k, v] : row.labels) {
      if (k == "phase") phase = v;
    }
    auto it = std::ranges::find_if(
        phases, [&](const auto& p) { return p.first == phase; });
    if (it == phases.end()) {
      phases.emplace_back(phase, row.cell);
    } else {
      it->second.merge(row.cell);  // boards register equal bounds
    }
  }
  if (!phases.empty()) {
    out << "  \"phases\": [\n";
    first = true;
    for (const auto& [phase, h] : phases) {
      if (!first) out << ",\n";
      first = false;
      out << "    {\"phase\": \"" << json_escape(phase)
          << "\", \"count\": " << h.count()
          << ", \"sum\": " << fmt_double(h.sum())
          << ", \"mean\": " << fmt_double(h.mean())
          << ", \"p50\": " << fmt_double(h.quantile(0.50))
          << ", \"p95\": " << fmt_double(h.quantile(0.95))
          << ", \"p99\": " << fmt_double(h.quantile(0.99))
          << ", \"max\": " << fmt_double(h.max()) << "}";
    }
    out << "\n  ],\n";
  }

  out << "  \"snapshots\": " << (sampler != nullptr ? sampler->rows() : 0)
      << "\n}\n";
}

std::string format_dashboard(const MetricsRegistry& registry,
                             const std::string& title) {
  std::ostringstream out;
  std::string rule(64, '=');
  out << rule << '\n' << "  " << title << '\n' << rule << '\n';

  auto name_width = [&registry] {
    std::size_t w = 0;
    for (const auto& row : registry.counters()) {
      w = std::max(w,
                   MetricsRegistry::full_name(row.name, row.labels).size());
    }
    for (const auto& row : registry.gauges()) {
      w = std::max(w,
                   MetricsRegistry::full_name(row.name, row.labels).size());
    }
    for (const auto& row : registry.histograms()) {
      w = std::max(w,
                   MetricsRegistry::full_name(row.name, row.labels).size());
    }
    return std::min<std::size_t>(w, 56);
  }();

  auto pad = [name_width](const std::string& s) {
    std::string out = s;
    if (out.size() < name_width) out.append(name_width - out.size(), ' ');
    return out;
  };

  if (!registry.counters().empty()) {
    out << "\n-- counters " << std::string(50, '-') << '\n';
    for (const auto& row : registry.counters()) {
      out << "  "
          << pad(MetricsRegistry::full_name(row.name, row.labels)) << "  "
          << row.cell.value() << '\n';
    }
  }
  if (!registry.gauges().empty()) {
    out << "\n-- gauges " << std::string(52, '-') << '\n';
    for (const auto& row : registry.gauges()) {
      out << "  "
          << pad(MetricsRegistry::full_name(row.name, row.labels)) << "  "
          << fmt_double(row.cell.value()) << '\n';
    }
  }
  if (!registry.histograms().empty()) {
    out << "\n-- histograms " << std::string(48, '-') << '\n';
    for (const auto& row : registry.histograms()) {
      const Histogram& h = row.cell;
      out << "  " << pad(MetricsRegistry::full_name(row.name, row.labels))
          << "  n=" << h.count();
      if (h.count() > 0) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "  mean=%.3g p50=%.3g p95=%.3g p99=%.3g max=%.3g",
                      h.mean(), h.quantile(0.5), h.quantile(0.95),
                      h.quantile(0.99), h.max());
        out << line << "\n  " << pad("") << "  [";
        // Occupancy bar: one glyph per bucket scaled against the fullest.
        const auto& counts = h.bucket_counts();
        std::uint64_t peak = *std::max_element(counts.begin(), counts.end());
        for (std::uint64_t c : counts) {
          static const char* glyphs = " .:-=+*#%@";
          std::size_t level =
              peak == 0 ? 0
                        : static_cast<std::size_t>(
                              (static_cast<double>(c) / peak) * 9.0);
          out << glyphs[level];
        }
        out << "]";
      }
      out << '\n';
    }
  }
  out << rule << '\n';
  return out.str();
}

}  // namespace vs::obs
