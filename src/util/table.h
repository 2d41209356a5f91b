// Console table formatter used by benches and examples to print the
// paper-shaped result rows (Fig 5/6/7/8 reproductions).
#pragma once

#include <concepts>
#include <iosfwd>
#include <string>
#include <vector>

namespace vs::util {

/// Column-aligned plain-text table. Cells are strings; numeric helpers
/// format with fixed precision. Rendered with a header rule and right
/// alignment for cells that parse as numbers.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; returns its index.
  std::size_t add_row();

  /// Appends a cell to the last row.
  void cell(std::string value);
  void cell(const char* value) { cell(std::string(value)); }
  void cell(double value, int precision = 3);
  template <std::integral T>
  void cell(T value) {
    cell(std::to_string(value));
  }

  void print(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `precision` digits after the point.
[[nodiscard]] std::string fmt(double value, int precision = 3);

/// Formats nanoseconds as a human-readable duration (e.g. "12.4 ms").
[[nodiscard]] std::string fmt_duration_ns(long long ns);

}  // namespace vs::util
