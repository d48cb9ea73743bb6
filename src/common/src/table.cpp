#include "codar/common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "codar/common/expects.hpp"

namespace codar {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  CODAR_EXPECTS(!header_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  CODAR_EXPECTS(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(width[c]) + 2) << row[c];
    }
    os << '\n';
  };
  print_row(header_);
  std::string rule;
  for (std::size_t c = 0; c < header_.size(); ++c)
    rule += std::string(width[c], '-') + "  ";
  os << rule << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string fmt_fixed(double value, int decimals) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(decimals) << value;
  return oss.str();
}

}  // namespace codar
