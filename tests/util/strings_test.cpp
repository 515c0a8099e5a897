#include "util/strings.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

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

TEST(ParseNumber, UnsignedDigitsOnlyUpTo2To64Minus1) {
  EXPECT_EQ(parse_number<std::uint64_t>("0"), 0u);
  EXPECT_EQ(parse_number<std::uint64_t>("0042"), 42u);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            18446744073709551615u);
  EXPECT_EQ(parse_number<std::uint64_t>("ff", 16), 255u);
  EXPECT_EQ(parse_number<std::uint64_t>("FFFFFFFFFFFFFFFF", 16),
            18446744073709551615u);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "\t1", "1x", "12x",
                          "18446744073709551616", "0x10", "1.0"}) {
    EXPECT_FALSE(parse_number<std::uint64_t>(bad)) << "'" << bad << "'";
  }
  EXPECT_FALSE(parse_number<std::uint64_t>("10000000000000000", 16));
  EXPECT_FALSE(parse_number<std::uint64_t>("g", 16));
}

// The rules every record line is read by: the shard cell records and
// manifests, the serve wire and journal and the replication link.
TEST(RecordRules, NumbersParseOnlyWhenTheWholeTextIsOne) {
  struct Row {
    const char* text;
    bool as_u64;     ///< parses as std::uint64_t
    bool as_int;     ///< parses as int
    bool as_double;  ///< parses as double
  };
  const Row rows[] = {
      {"6x", false, false, false},
      {"-7", false, true, true},
      {"+1", false, false, false},
      {" 1", false, false, false},
      {"\t1", false, false, false},
      {"1\t", false, false, false},
      {"18446744073709551616", false, false, true},  // 2^64
      {"", false, false, false},
      {"nan", false, false, false},
      {"inf", false, false, false},
      {"-inf", false, false, false},
      {"1e999", false, false, false},
      {"0.25abc", false, false, false},
      {"18446744073709551615", true, false, true},  // 2^64 - 1
      {"2147483647", true, true, true},
      {"2147483648", true, false, true},
      {"0.25", false, false, true},
      {"1e-3", false, false, true},
      {"7", true, true, true},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(parse_number<std::uint64_t>(row.text).has_value(), row.as_u64)
        << "'" << row.text << "' as uint64";
    EXPECT_EQ(parse_number<int>(row.text).has_value(), row.as_int)
        << "'" << row.text << "' as int";
    EXPECT_EQ(parse_number<double>(row.text).has_value(), row.as_double)
        << "'" << row.text << "' as double";
  }
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(RecordRules, SeventeenDigitDoublesRoundTripExactly) {
  Rng rng(39);
  for (int i = 0; i < 100000; ++i) {
    double value = 0;
    const std::uint64_t bits = rng.next_u64();
    std::memcpy(&value, &bits, sizeof value);
    if (!std::isfinite(value)) continue;
    const std::string text = format("%.17g", value);
    const std::optional<double> back = parse_number<double>(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(std::memcmp(&*back, &value, sizeof value), 0) << text;
  }
}

TEST(RecordRules, FieldsAreRunsOfNonSpaceBytes) {
  struct Row {
    const char* line;
    std::vector<std::string> fields;
  };
  const std::vector<Row> rows = {
      {"a b", {"a", "b"}},
      {"  a   b  ", {"a", "b"}},
      {"a\tb", {"a\tb"}},         // a tab does not separate
      {"\ta b\t", {"\ta", "b\t"}},  // nor is it trimmed
      {"a\r", {"a\r"}},
      {"", {}},
      {"   ", {}},
  };
  for (const Row& row : rows) {
    FieldReader fields(row.line);
    EXPECT_EQ(fields.left(), row.fields.size()) << "'" << row.line << "'";
    for (const std::string& expected : row.fields) {
      EXPECT_EQ(fields.word("field"), expected) << "'" << row.line << "'";
    }
    EXPECT_NO_THROW(fields.end()) << "'" << row.line << "'";
    EXPECT_THROW(fields.word("field"), std::invalid_argument)
        << "'" << row.line << "'";
  }
}

TEST(RecordRules, EscapedFieldsRoundTripAndBadEscapesThrow) {
  for (const std::string text :
       {std::string(""), std::string("a b"), std::string("\\0"),
        std::string(" \t\r\n\\"), std::string("\0nul", 4),
        std::string("\"quoted\"")}) {
    const std::string field = escape_field(text);
    EXPECT_EQ(field.find_first_of(" \t\r\n"), std::string::npos) << field;
    const std::string line = field + " next";
    FieldReader fields(line);
    EXPECT_EQ(fields.text("field"), text) << field;
    EXPECT_EQ(fields.word("next"), "next");
  }
  EXPECT_EQ(escape_field(""), "\\0");
  EXPECT_EQ(unescape_field("\\0"), "");
  for (const char* bad : {"x\\", "\\q", "a\\0"}) {
    EXPECT_THROW(unescape_field(bad), std::invalid_argument) << bad;
    FieldReader fields(bad);
    EXPECT_THROW(fields.text("field"), std::invalid_argument) << bad;
  }
}

TEST(RecordRules, EachFailureNamesTheFieldAndQuotesIt) {
  auto message = [](const std::function<void()>& read) {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([] { FieldReader("6x").number<unsigned>("trials run"); }),
            "trials run '6x' is not an unsigned integer in range");
  EXPECT_EQ(message([] { FieldReader("nan").number<double>("timing"); }),
            "timing 'nan' is not a finite number");
  EXPECT_EQ(message([] { FieldReader("-").number<int>("count"); }),
            "count '-' is not an integer in range");
  EXPECT_EQ(message([] { FieldReader("").word("ack seq"); }),
            "missing ack seq");
  EXPECT_EQ(message([] { FieldReader("shard").expect("seed"); }),
            "expected 'seed', got 'shard'");
  EXPECT_EQ(message([] { FieldReader("").expect("seed"); }), "missing seed");
  EXPECT_EQ(message([] { FieldReader("a\\").text("payload"); }),
            "payload 'a\\': dangling escape in field");
  EXPECT_EQ(message([] {
              FieldReader fields("ok 5 extra");
              fields.expect("ok");
              fields.number<int>("seq");
              fields.end();
            }),
            "unexpected field 'extra' after the last one");
}

TEST(ReplaceAll, Basics) {
  EXPECT_EQ(replace_all("aXbXc", "X", "--"), "a--b--c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");  // non-overlapping
  EXPECT_EQ(replace_all("abc", "", "x"), "abc");   // empty needle is no-op
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
