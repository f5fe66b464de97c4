#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace fairswap {

namespace {

/// Width in characters: UTF-8 continuation bytes (0b10xxxxxx) do not start
/// a character, so the two-byte "±" pads like one column.
std::size_t display_width(const std::string& s) {
  return static_cast<std::size_t>(
      std::count_if(s.begin(), s.end(), [](unsigned char c) {
        return (c & 0xC0) != 0x80;
      }));
}

}  // namespace

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string TextTable::render() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = display_width(headers_[c]);
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], display_width(row[c]));
    }
  }

  auto rule = [&] {
    std::string s = "+";
    for (std::size_t w : width) s += std::string(w + 2, '-') + "+";
    return s + "\n";
  };
  auto line = [&](const std::vector<std::string>& cells) {
    std::string s = "|";
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      s += " " + cell + std::string(width[c] - display_width(cell), ' ') +
           " |";
    }
    return s + "\n";
  };

  std::ostringstream out;
  out << rule() << line(headers_) << rule();
  for (const auto& row : rows_) out << line(row);
  out << rule();
  return out.str();
}

}  // namespace fairswap
