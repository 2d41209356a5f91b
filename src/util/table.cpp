#include "util/table.h"

#include <cctype>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace vs::util {

namespace {

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  bool digit = false;
  for (char c : s) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digit = true;
    } else if (c != '.' && c != '-' && c != '+' && c != 'e' && c != 'E' &&
               c != 'x' && c != '%') {
      return false;
    }
  }
  return digit;
}

}  // namespace

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

std::size_t Table::add_row() {
  rows_.emplace_back();
  return rows_.size() - 1;
}

void Table::cell(std::string value) {
  if (rows_.empty()) add_row();
  rows_.back().push_back(std::move(value));
}

void Table::cell(double value, int precision) { cell(fmt(value, precision)); }

void Table::print(std::ostream& os) const { os << to_string(); }

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& cells, bool align_numeric) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string value = i < cells.size() ? cells[i] : "";
      std::size_t pad = widths[i] - value.size();
      if (align_numeric && looks_numeric(value)) {
        out << "  " << std::string(pad, ' ') << value;
      } else {
        out << "  " << value << std::string(pad, ' ');
      }
    }
    out << '\n';
  };
  emit(header_, false);
  out << "  ";
  for (std::size_t i = 0; i < widths.size(); ++i) {
    out << std::string(widths[i], '-');
    if (i + 1 < widths.size()) out << "  ";
  }
  out << '\n';
  for (const auto& row : rows_) emit(row, true);
  return out.str();
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string fmt_duration_ns(long long ns) {
  char buf[64];
  double v = static_cast<double>(ns);
  if (ns < 1000) {
    std::snprintf(buf, sizeof(buf), "%lld ns", ns);
  } else if (ns < 1000000) {
    std::snprintf(buf, sizeof(buf), "%.2f us", v / 1e3);
  } else if (ns < 1000000000) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", v / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f s", v / 1e9);
  }
  return buf;
}

}  // namespace vs::util
