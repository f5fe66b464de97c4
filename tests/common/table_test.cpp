#include "common/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace fairswap {
namespace {

TEST(TextTable, RendersHeadersAndRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "2"});
  const std::string s = t.render();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(TextTable, PadsColumnsToWidestCell) {
  TextTable t({"h", "mean"});
  t.add_row({"wide-cell-content", "0.8662 ± 0.0068"});
  t.add_row({"x", "63 ± 2"});
  const std::string s = t.render();
  // Every line must be equally many characters wide (aligned columns);
  // "±" is two bytes in UTF-8 but one character.
  std::size_t expected = std::string::npos;
  std::istringstream in(s);
  std::string line;
  while (std::getline(in, line)) {
    const auto chars = static_cast<std::size_t>(
        std::count_if(line.begin(), line.end(),
                      [](unsigned char c) { return (c & 0xC0) != 0x80; }));
    if (expected == std::string::npos) expected = chars;
    EXPECT_EQ(chars, expected) << line;
  }
}

TEST(TextTable, MissingCellsRenderEmpty) {
  TextTable t({"a", "b", "c"});
  t.add_row({"only-one"});
  const std::string s = t.render();
  EXPECT_NE(s.find("only-one"), std::string::npos);
}

TEST(TextTable, ExtraCellsAreDropped) {
  TextTable t({"a"});
  t.add_row({"x", "overflow"});
  EXPECT_EQ(t.render().find("overflow"), std::string::npos);
}

TEST(TextTable, NumFormatsFixedPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
  EXPECT_EQ(TextTable::num(-0.5, 1), "-0.5");
}

TEST(TextTable, EmptyTableStillRendersHeader) {
  TextTable t({"solo"});
  EXPECT_NE(t.render().find("solo"), std::string::npos);
}

}  // namespace
}  // namespace fairswap
