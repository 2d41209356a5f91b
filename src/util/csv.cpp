#include "util/csv.h"

#include <stdexcept>

#include "util/table.h"

namespace vs::util {

CsvWriter::CsvWriter(const std::string& path) : path_(path), out_(path) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
}

void CsvWriter::close() {
  out_.close();
  if (!out_) throw std::runtime_error("CsvWriter: cannot write " + path_);
}

void CsvWriter::header(const std::vector<std::string>& names) { row(names); }

void CsvWriter::row(const std::vector<std::string>& cells) {
  begin_row();
  for (const auto& c : cells) field(c);
  end_row();
}

void CsvWriter::begin_row() { first_in_row_ = true; }

void CsvWriter::field(const std::string& value) { write_cell(value); }

void CsvWriter::field(double value) { write_cell(fmt(value, 6)); }

void CsvWriter::end_row() { out_ << '\n'; }

void CsvWriter::write_cell(const std::string& value) {
  if (!first_in_row_) out_ << ',';
  first_in_row_ = false;
  if (value.find_first_of(",\"\n") != std::string::npos) {
    out_ << '"';
    for (char c : value) {
      if (c == '"') out_ << '"';
      out_ << c;
    }
    out_ << '"';
  } else {
    out_ << value;
  }
}

}  // namespace vs::util
