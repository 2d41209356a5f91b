// Minimal CSV writer for exporting benchmark series (D_switch traces,
// response-time distributions) for external plotting.
#pragma once

#include <concepts>
#include <fstream>
#include <string>
#include <vector>

namespace vs::util {

/// Writes rows of string/number cells to a CSV file. Quotes cells that
/// contain separators. Throws std::runtime_error naming the path if the
/// file cannot be opened, and from close() if a write failed.
class CsvWriter {
 public:
  explicit CsvWriter(const std::string& path);

  void header(const std::vector<std::string>& names);
  void row(const std::vector<std::string>& cells);

  /// Convenience: mixed string/number row.
  void begin_row();
  void field(const std::string& value);
  void field(double value);
  template <std::integral T>
  void field(T value) {
    field(std::to_string(value));
  }
  void end_row();

  /// Flushes and closes the file; throws if any write to it failed.
  void close();

 private:
  void write_cell(const std::string& value);

  std::string path_;
  std::ofstream out_;
  bool first_in_row_ = true;
};

}  // namespace vs::util
