// Tests for string helpers and simulated-time utilities.
#include <gtest/gtest.h>

#include "util/strings.hpp"
#include "util/time.hpp"

namespace btpub {
namespace {

TEST(SplitViews, Basic) {
  const auto parts = split_views("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitViews, PreservesEmptyFields) {
  const auto parts = split_views("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitViews, NoSeparator) {
  const auto parts = split_views("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(SplitViews, SeparatorsOnlyGiveEmptyFields) {
  // n separators give n + 1 empty fields: the empty input is one field.
  for (const char* input : {"", ",", ",,"}) {
    const auto views = split_views(input, ',');
    ASSERT_EQ(views.size(), std::string_view(input).size() + 1) << input;
    for (const std::string_view field : views) EXPECT_EQ(field, "") << input;
  }
}

TEST(SplitViews, ViewsAliasTheInputBuffer) {
  const std::string backing = "key=value&key2=value2";
  const auto views = split_views(backing, '&');
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].data(), backing.data());  // no copy, just a window
  EXPECT_EQ(views[1], "key2=value2");
}

TEST(SplitViews, ReusedVectorIsClearedFirst) {
  std::vector<std::string_view> out;
  split_views("a,b,c", ',', out);
  ASSERT_EQ(out.size(), 3u);
  split_views("x", ',', out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "x");
}

TEST(UrlUnescapeInto, DecodesWithinCapacity) {
  char buf[20];
  const auto n = url_unescape_into("abc%20def", buf, sizeof buf);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(std::string_view(buf, *n), "abc def");
}

TEST(UrlUnescapeInto, RejectsMalformedAndOverflow) {
  char buf[4];
  EXPECT_FALSE(url_unescape_into("%", buf, sizeof buf).has_value());
  EXPECT_FALSE(url_unescape_into("%f", buf, sizeof buf).has_value());
  EXPECT_FALSE(url_unescape_into("%zz", buf, sizeof buf).has_value());
  EXPECT_FALSE(url_unescape_into("12345", buf, sizeof buf).has_value());
  EXPECT_TRUE(url_unescape_into("%31%32%33%34", buf, sizeof buf).has_value());
}

TEST(Case, ToLower) {
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
}

TEST(Affixes, StartsEndsWith) {
  EXPECT_TRUE(starts_with("divxatope.com", "divx"));
  EXPECT_FALSE(starts_with("a", "ab"));
  EXPECT_TRUE(ends_with("file-site.com", ".com"));
  EXPECT_FALSE(ends_with(".com", "site.com"));
}

TEST(Trim, Whitespace) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(ParseUint, AcceptsWholeDecimalNumbersUpToMax) {
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("42"), 42u);
  EXPECT_EQ(parse_uint("007"), 7u);
  EXPECT_EQ(parse_uint("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_uint("65535", 65535), 65535u);
}

TEST(ParseUint, RejectsGarbageSignsAndOverflow) {
  for (const char* bad : {"", "abc", "4x", "x4", " 4", "4 ", "-1", "+1", "1.5",
                          "1e3", "0x10", "18446744073709551616"}) {
    EXPECT_EQ(parse_uint(bad), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(parse_uint("70000", 65535), std::nullopt);
  EXPECT_EQ(parse_uint("65536", 65535), std::nullopt);
}

TEST(ParseDouble, AcceptsFiniteNonNegativeDecimals) {
  EXPECT_EQ(parse_double("0"), 0.0);
  EXPECT_EQ(parse_double("2"), 2.0);
  EXPECT_EQ(parse_double("0.5"), 0.5);
  EXPECT_EQ(parse_double("1e3"), 1000.0);
  EXPECT_EQ(parse_double("40000.25"), 40000.25);
}

TEST(ParseDouble, RejectsGarbageSignsAndNonFinite) {
  for (const char* bad : {"", "abc", "4x", "x4", " 4", "4 ", "-1", "-0", "+1",
                          "1.5s", "inf", "nan", "-inf", "1e999", "0x10"}) {
    EXPECT_EQ(parse_double(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(FormatDouble, Decimals) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
}

TEST(Humanize, Magnitudes) {
  EXPECT_EQ(humanize(950.0), "950");
  EXPECT_EQ(humanize(33000.0), "33K");
  EXPECT_EQ(humanize(2800000.0), "2.8M");
  EXPECT_EQ(humanize(1.4e9), "1.4B");
}

TEST(Percent, Rendering) {
  EXPECT_EQ(percent(0.301), "30.1%");
  EXPECT_EQ(percent(1.0, 0), "100%");
}

TEST(CsvEscape, QuotesOnlyFieldsThatNeedIt) {
  EXPECT_EQ(csv_escape("plain title"), "plain title");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  // A bare CR ends a record for RFC 4180 readers, so it must be quoted too.
  EXPECT_EQ(csv_escape("bare\rcr"), "\"bare\rcr\"");
}

TEST(SimTimeUnits, Conversions) {
  EXPECT_EQ(minutes(2.0), 120);
  EXPECT_EQ(hours(1.5), 5400);
  EXPECT_EQ(days(2.0), 172800);
  EXPECT_DOUBLE_EQ(to_minutes(90), 1.5);
  EXPECT_DOUBLE_EQ(to_hours(5400), 1.5);
  EXPECT_DOUBLE_EQ(to_days(86400), 1.0);
}

TEST(FormatDuration, Rendering) {
  EXPECT_EQ(format_duration(0), "00:00:00");
  EXPECT_EQ(format_duration(hours(1) + minutes(2) + 3), "01:02:03");
  EXPECT_EQ(format_duration(days(3) + hours(4) + minutes(5) + 9),
            "3d 04:05:09");
  EXPECT_EQ(format_duration(-hours(2)), "-02:00:00");
}

TEST(IntervalOps, ContainsAndOverlaps) {
  const Interval a{10, 20};
  EXPECT_EQ(a.length(), 10);
  EXPECT_TRUE(a.contains(10));
  EXPECT_TRUE(a.contains(19));
  EXPECT_FALSE(a.contains(20));  // half-open
  EXPECT_FALSE(a.contains(9));
  const Interval b{19, 25};
  const Interval c{20, 25};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));  // touching is not overlapping
  EXPECT_TRUE(b.overlaps(a));
}

}  // namespace
}  // namespace btpub
