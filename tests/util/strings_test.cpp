#include "util/strings.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace provmark::util {
namespace {

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("nodelim", ','), (std::vector<std::string>{"nodelim"}));
}

TEST(SplitNonempty, TrimsAndDrops) {
  EXPECT_EQ(split_nonempty(" a , ,b ", ','),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_nonempty("  ,  ", ',').empty());
}

TEST(Trim, Whitespace) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\r\nx\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(starts_with("digraph g", "digraph"));
  EXPECT_FALSE(starts_with("di", "digraph"));
  EXPECT_TRUE(ends_with("file.json", ".json"));
  EXPECT_FALSE(ends_with("json", ".json"));
}

TEST(Join, Basics) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(ReplaceAll, Basics) {
  EXPECT_EQ(replace_all("aXbXc", "X", "--"), "a--b--c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");  // non-overlapping
  EXPECT_EQ(replace_all("abc", "", "x"), "abc");   // empty needle is no-op
}

TEST(ParseU64, DigitsOnlyUpTo2To64Minus1) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("0042"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615u);
  EXPECT_EQ(parse_u64("ff", 16), 255u);
  EXPECT_EQ(parse_u64("FFFFFFFFFFFFFFFF", 16), 18446744073709551615u);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "\t1", "1x", "12x",
                          "18446744073709551616", "0x10", "1.0"}) {
    EXPECT_THROW(parse_u64(bad), std::invalid_argument) << "'" << bad << "'";
  }
  EXPECT_THROW(parse_u64("10000000000000000", 16), std::invalid_argument);
  EXPECT_THROW(parse_u64("g", 16), std::invalid_argument);
}

TEST(Format, Printf) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format("%.2f", 1.5), "1.50");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(StringArena, KeptViewsSurviveLaterKeeps) {
  StringArena arena;
  std::vector<std::string_view> views;
  std::vector<std::string> expected;
  // Enough bytes to fill several chunks, with one string larger than any
  // chunk so far.
  for (int i = 0; i < 2000; ++i) {
    expected.push_back(i == 1000 ? std::string(100000, 'x')
                                 : "s" + std::to_string(i));
    views.push_back(arena.keep(expected.back()));
  }
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i], expected[i]);
    EXPECT_NE(views[i].data(), expected[i].data());
  }
  EXPECT_EQ(arena.keep(""), "");
}

TEST(StringArena, KeepCopiesAView) {
  StringArena arena;
  std::string source = "abcdef";
  std::string_view kept = arena.keep(std::string_view(source).substr(1, 3));
  source.assign("zzzzzz");
  EXPECT_EQ(kept, "bcd");
}

TEST(StringArena, KeptViewsSurviveMovingTheArena) {
  StringArena arena;
  std::string_view first = arena.keep("first");
  StringArena moved(std::move(arena));
  std::string_view second = moved.keep("second");
  StringArena assigned;
  assigned.keep("dropped");
  assigned = std::move(moved);
  std::string_view third = assigned.keep("third");
  EXPECT_EQ(first, "first");
  EXPECT_EQ(second, "second");
  EXPECT_EQ(third, "third");
  // A moved-from arena is empty and usable, and writes into none of the
  // moved chunks.
  EXPECT_EQ(arena.keep("again"), "again");
  EXPECT_EQ(moved.keep("again"), "again");
  EXPECT_EQ(first, "first");
  EXPECT_EQ(second, "second");
}

}  // namespace
}  // namespace provmark::util
