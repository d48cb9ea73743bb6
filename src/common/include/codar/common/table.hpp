#pragma once

// Minimal fixed-width table printer used by the benchmark harness to emit
// the rows/series the paper's tables and figures report.

#include <iosfwd>
#include <string>
#include <vector>

namespace codar {

/// Accumulates rows of string cells and prints them as an aligned ASCII
/// table. Cells are strings; use the format helpers below.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Aligned, human-readable rendering (pads each column to its max width).
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given number of decimal places.
std::string fmt_fixed(double value, int decimals);

}  // namespace codar
