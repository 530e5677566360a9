#include "common/strings.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace envmon {
namespace {

TEST(Split, BasicFields) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, EmptyFieldsPreserved) {
  const auto parts = split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, NoDelimiter) {
  const auto parts = split("single", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "single");
}

TEST(Trim, RemovesBothEnds) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t\nx\r "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(ToLower, MixedCase) { EXPECT_EQ(to_lower("Blue Gene/Q"), "blue gene/q"); }

TEST(StartsWith, Cases) {
  EXPECT_TRUE(starts_with("/sys/class/micras/power", "/sys/"));
  EXPECT_FALSE(starts_with("abc", "abcd"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(Join, Basic) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 4), "1.0000");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(FormatDouble, WideValuesAreNotTruncated) {
  // 58 integer digits, the point and 6 decimals: past any small buffer.
  const std::string wide = format_double(1e57, 6);
  EXPECT_EQ(wide.size(), 65u);
  double back = 0.0;
  ASSERT_TRUE(parse_double(wide, back));
  EXPECT_EQ(back, 1e57);
  EXPECT_EQ(format_double(-std::numeric_limits<double>::max(), 6).size(), 1u + 309 + 1 + 6);
}

TEST(ParseDouble, ValidInputs) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("42.5", v));
  EXPECT_DOUBLE_EQ(v, 42.5);
  EXPECT_TRUE(parse_double("  -1e3 ", v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
}

TEST(ParseDouble, RejectsGarbage) {
  double v = 0.0;
  EXPECT_FALSE(parse_double("", v));
  EXPECT_FALSE(parse_double("12x", v));
  EXPECT_FALSE(parse_double("watts", v));
}

TEST(ParseU64, ValidAndInvalid) {
  unsigned long long v = 0;
  EXPECT_TRUE(parse_u64("123456789", v));
  EXPECT_EQ(v, 123456789ull);
  EXPECT_FALSE(parse_u64("-3", v));
  EXPECT_FALSE(parse_u64("1.5", v));
  EXPECT_FALSE(parse_u64("", v));
}

}  // namespace
}  // namespace envmon
