#include "report/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/error.hpp"

namespace afdx::report {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  AFDX_REQUIRE(!headers_.empty(), "Table: needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  AFDX_REQUIRE(cells.size() == headers_.size(),
               "Table: row width does not match header");
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << row[c];
      if (c + 1 < row.size()) {
        out << std::string(widths[c] - row[c].size(), ' ') << "  ";
      }
    }
    out << "\n";
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  out << std::string(total, '-') << "\n";
  for (const auto& row : rows_) print_row(row);
}

void Table::print_csv(std::ostream& out) const {
  print_csv_row(out, headers_);
  for (const auto& row : rows_) print_csv_row(out, row);
}

void print_csv_row(std::ostream& out, const std::vector<std::string>& cells) {
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c) out << ',';
    const std::string& cell = cells[c];
    if (cell.find_first_of(",\"\r\n") == std::string::npos) {
      out << cell;
      continue;
    }
    out << '"';
    for (const char ch : cell) {
      if (ch == '"') out << '"';
      out << ch;
    }
    out << '"';
  }
  out << '\n';
}

std::string fmt(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

}  // namespace afdx::report
