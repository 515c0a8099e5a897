#include "util/json.h"

#include <gtest/gtest.h>

namespace provmark::util {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_double(), 3.5);
  EXPECT_EQ(Json::parse("-17").as_int(), -17);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, WhitespaceTolerance) {
  Json j = Json::parse("  {\n\t\"a\" : [ 1 , 2 ] }\r\n");
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.at("a").as_array().size(), 2u);
}

TEST(JsonParse, NestedStructures) {
  Json j = Json::parse(R"({"a": {"b": [1, {"c": "d"}]}})");
  EXPECT_EQ(j.at("a").at("b").as_array()[1].at("c").as_string(), "d");
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(Json::parse("[]").as_array().empty());
  EXPECT_TRUE(Json::parse("{}").as_object().empty());
}

TEST(JsonParse, StringEscapes) {
  Json j = Json::parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(j.as_string(), "a\"b\\c\nd\teA");
}

TEST(JsonParse, UnicodeEscapes) {
  // U+00E9 (e-acute), and a surrogate pair for U+1F600.
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xC3\xA9");
  EXPECT_EQ(Json::parse("\"\\uD83D\\uDE00\"").as_string(),
            "\xF0\x9F\x98\x80");
}

TEST(JsonParse, ErrorsCarryOffset) {
  try {
    Json::parse("{\"a\": }");
    FAIL() << "expected parse error";
  } catch (const JsonParseError& e) {
    EXPECT_GT(e.offset(), 0u);
  }
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_THROW(Json::parse(""), JsonParseError);
  EXPECT_THROW(Json::parse("{"), JsonParseError);
  EXPECT_THROW(Json::parse("[1,]"), JsonParseError);
  EXPECT_THROW(Json::parse("tru"), JsonParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonParseError);
  EXPECT_THROW(Json::parse("1 2"), JsonParseError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), JsonParseError);
  // Numbers outside RFC 8259: leading zeros, a bare or trailing decimal
  // point, a fraction without digits before its exponent. Each fails
  // at the literal.
  for (const char* text : {"01", "00", "-01", "1.", ".5", "-.5", "1.e5"}) {
    try {
      Json::parse(std::string("[") + text + "]");
      ADD_FAILURE() << text << " parsed";
    } catch (const JsonParseError& e) {
      EXPECT_STREQ(e.what(), "invalid number at offset 1") << text;
    }
  }
}

TEST(JsonParse, Rfc8259Numbers) {
  for (const char* text : {"0", "-0", "0.5", "-1.25e-3", "1E+2", "1e05"}) {
    EXPECT_TRUE(Json::parse(text).is_number()) << text;
  }
}

TEST(JsonDump, CompactRoundTrip) {
  const char* text = R"({"b":1,"a":[true,null,"x"]})";
  Json j = Json::parse(text);
  EXPECT_EQ(j.dump(), text);  // member order preserved
}

TEST(JsonDump, PreservesIntegerLiterals) {
  // Large identifiers must not be mangled through double conversion.
  Json j = Json::parse("{\"id\":9007199254740993}");
  EXPECT_NE(j.dump().find("9007199254740993"), std::string::npos);
}

TEST(JsonDump, IndentedOutputParses) {
  Json j = Json::parse(R"({"a":[1,2],"b":{"c":"d"}})");
  Json round = Json::parse(j.dump(2));
  EXPECT_EQ(j, round);
}

TEST(JsonDump, EscapesControlCharacters) {
  Json j(std::string("a\001b"));
  EXPECT_EQ(j.dump(), "\"a\\u0001b\"");
}

TEST(JsonBuild, SetAndFind) {
  Json obj = Json::object();
  obj.set("x", Json(1));
  obj.set("y", Json("z"));
  obj.set("x", Json(2));  // overwrite keeps position
  EXPECT_EQ(obj.as_object().front().first, "x");
  EXPECT_EQ(obj.at("x").as_int(), 2);
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_THROW(obj.at("missing"), std::out_of_range);
}

TEST(JsonBuild, PushBack) {
  Json arr = Json::array();
  arr.push_back(Json(1));
  arr.push_back(Json("two"));
  EXPECT_EQ(arr.as_array().size(), 2u);
}

TEST(JsonEquality, DeepCompare) {
  EXPECT_EQ(Json::parse(R"({"a":[1,2]})"), Json::parse(R"({"a":[1,2]})"));
  EXPECT_FALSE(Json::parse(R"({"a":1})") == Json::parse(R"({"a":2})"));
  EXPECT_FALSE(Json::parse("[1]") == Json::parse("{}"));
}

TEST(JsonEscape, Basics) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("tab\t"), "tab\\t");
  EXPECT_EQ(json_escape("plain"), "plain");
}

}  // namespace
}  // namespace provmark::util
