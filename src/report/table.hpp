// Plain-text tables for the benchmark harnesses: each bench prints the rows
// the paper's tables/figures report, via this small formatter, plus a CSV
// form for downstream plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace afdx::report {

/// Column-aligned text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row; must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Renders with a header rule and right-padded columns.
  void print(std::ostream& out) const;

  /// Renders as CSV, one print_csv_row per line.
  void print_csv(std::ostream& out) const;

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Writes one CSV line (RFC 4180): a cell holding a comma, a double quote
/// or a line break is quoted, with its quotes doubled; every other cell is
/// written as is.
void print_csv_row(std::ostream& out, const std::vector<std::string>& cells);

/// Formats a double with the given number of decimals.
[[nodiscard]] std::string fmt(double value, int decimals = 2);

}  // namespace afdx::report
