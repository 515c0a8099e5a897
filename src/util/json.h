// Minimal JSON: a streaming writer, a pull reader, and a value type
// built on both.
//
// ProvMark's transformation stage consumes recorder output in PROV-JSON
// (CamFlow) and Neo4j-export JSON (OPUS).  Nothing beyond RFC 8259 scalars,
// arrays and objects is needed, so this is a small self-contained
// implementation rather than an external dependency.
//
// The recorder formats write through JsonWriter and read through
// JsonReader in one pass, so no Json tree is built per trial; Json::dump
// and Json::parse use the same two classes, so the 2-space layout and
// the grammar each exist once.
//
// Both sit on every recorded trial's path, so their per-token work is
// kept small. The writer builds each key, string or literal whole in the
// string it returns: one capacity check, then plain stores, with a
// string's bytes tested and copied eight at a time. The reader walks a
// raw cursor; whitespace, separators, expect() and the scan of a string
// without escapes are inline below, eight bytes at a time for strings.
// Decoding escapes, numbers and building an error message are out of
// line. Numbers follow RFC 8259's grammar exactly.
//
// Object member order is preserved (insertion order) so that serialized
// recorder output is stable across runs given stable input; ProvMark's
// generalization stage depends on run-to-run differences coming only from
// genuinely transient values, not from container iteration order.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/strings.h"

namespace provmark::util {

class Json;
class JsonWriter;

/// Error thrown by the JSON parser on malformed input, with byte offset.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& message, std::size_t offset)
      : std::runtime_error(message + " at offset " + std::to_string(offset)),
        offset_(offset) {}

  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// A JSON value. Numbers are stored as double plus the original text so
/// integer identifiers survive round-trips exactly.
class Json {
 public:
  using Array = std::vector<Json>;
  /// Insertion-ordered object: vector of (key, value); lookup is linear,
  /// which is fine for the small objects recorders emit per node/edge.
  using Object = std::vector<std::pair<std::string, Json>>;

  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(Number{d, {}}) {}
  Json(int i) : value_(Number{static_cast<double>(i), std::to_string(i)}) {}
  Json(std::int64_t i)
      : value_(Number{static_cast<double>(i), std::to_string(i)}) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }
  /// Number carrying its original source literal (exact round-trips).
  static Json number_with_text(double value, std::string text) {
    Json j;
    j.value_ = Number{value, std::move(text)};
    return j;
  }

  Type type() const;
  bool is_null() const { return type() == Type::Null; }
  bool is_bool() const { return type() == Type::Bool; }
  bool is_number() const { return type() == Type::Number; }
  bool is_string() const { return type() == Type::String; }
  bool is_array() const { return type() == Type::Array; }
  bool is_object() const { return type() == Type::Object; }

  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object member access; returns nullptr when absent or not an object.
  const Json* find(std::string_view key) const;
  /// Object member access; throws std::out_of_range when absent.
  const Json& at(std::string_view key) const;
  /// Insert or overwrite an object member (preserving position on overwrite).
  void set(std::string_view key, Json value);
  /// Append to an array.
  void push_back(Json value);

  /// Serialize. `indent` <= 0 produces compact single-line output.
  std::string dump(int indent = 0) const;

  /// Parse a complete JSON document; trailing non-space input is an error.
  static Json parse(std::string_view text);

  bool operator==(const Json& other) const;

 private:
  struct Number {
    double value;
    std::string text;  // original literal when available
    bool operator==(const Number& o) const { return value == o.value; }
  };
  using Value =
      std::variant<std::nullptr_t, bool, Number, std::string, Array, Object>;

  void write_to(JsonWriter& writer) const;

  Value value_;
};

namespace detail {

/// What JSON does with each byte inside a string: 0 for a byte taken as
/// is, else the character after the backslash that escapes it ('u' for
/// \u00XX). The writer escapes exactly these bytes (`"`, `\` and the
/// controls below 0x20), and the reader's plain-string scan stops at them.
inline constexpr std::array<char, 256> kJsonEscape = [] {
  std::array<char, 256> table{};
  for (int c = 0; c < 0x20; ++c) table[c] = 'u';
  table['\b'] = 'b';
  table['\f'] = 'f';
  table['\n'] = 'n';
  table['\r'] = 'r';
  table['\t'] = 't';
  table['"'] = '"';
  table['\\'] = '\\';
  return table;
}();

/// For eight bytes of a string from `p` on, the high bit of each byte
/// that is a quote, backslash or control byte (see bytes_equal).
inline std::uint64_t json_special_bytes(const char* p) {
  const std::uint64_t word = load_word(p);
  return bytes_equal(word, '"') | bytes_equal(word, '\\') |
         bytes_below(word, 0x20);
}

/// The number of bytes from `p` on, before `end`, that a JSON string
/// holds as they are: up to the first quote, backslash or control byte.
/// Eight bytes are tested at a time.
inline std::size_t json_plain_run(const char* p, const char* end) {
  const char* at = p;
  for (; end - at >= 8; at += 8) {
    if (const std::uint64_t hit = json_special_bytes(at); hit != 0) {
      return static_cast<std::size_t>(at - p) +
             static_cast<std::size_t>(std::countr_zero(hit) / 8);
    }
  }
  while (at != end && kJsonEscape[static_cast<unsigned char>(*at)] == 0) ++at;
  return static_cast<std::size_t>(at - p);
}

}  // namespace detail


/// per line, `indent` spaces per level, `"key": value`, and empty
/// containers as `{}` / `[]`. Inside an object each value follows a
/// key(); the caller keeps begin/end calls balanced, then take()s the
/// text. `expected` is the caller's estimate of its size (StringWriter).
///
/// Each key, string or literal is written whole: one capacity check for
/// its separator, line break, quotes and plain bytes, then stores. Only
/// a string that needs escaping takes the out-of-line path.
class JsonWriter {
 public:
  explicit JsonWriter(int indent = 0, std::size_t expected = 0)
      : out_(expected), indent_(indent > 0 ? indent : 0) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(std::string_view k) {
    char* at = out_.room(k.size() + break_size() + 4);
    at = member_break(at);
    *at++ = '"';
    at = escaped(at, k);
    *at++ = '"';
    *at++ = ':';
    if (indent_ > 0) *at++ = ' ';
    out_.advance_to(at);
    after_key_ = true;
  }

  void string(std::string_view s) {
    char* at = out_.room(s.size() + break_size() + 2);
    at = value_break(at);
    *at++ = '"';
    at = escaped(at, s);
    *at++ = '"';
    out_.advance_to(at);
  }

  /// A value written verbatim: a number literal, true, false or null.
  void literal(std::string_view text) {
    char* at = out_.room(text.size() + break_size());
    at = value_break(at);
    std::memcpy(at, text.data(), text.size());
    out_.advance_to(at + text.size());
  }

  /// The text written. The writer is spent.
  std::string take() { return out_.take(); }

 private:
  /// Bytes member_break() may touch: a comma, a line break and the
  /// deepest indentation, written eight spaces at a time.
  std::size_t break_size() const {
    return 9 + static_cast<std::size_t>(indent_) * depth_;
  }

  char* newline(char* at, std::size_t depth) const {
    if (indent_ == 0) return at;
    *at++ = '\n';
    const std::size_t spaces = static_cast<std::size_t>(indent_) * depth;
    for (std::size_t i = 0; i < spaces; i += 8) {
      std::memcpy(at + i, "        ", 8);
    }
    return at + spaces;
  }

  /// The separator and line break before a member or element.
  char* member_break(char* at) {
    if (!first_) *at++ = ',';
    first_ = false;
    return newline(at, depth_);
  }

  /// member_break() before an array element or the top-level value;
  /// nothing after a key.
  char* value_break(char* at) {
    if (after_key_) {
      after_key_ = false;
      return at;
    }
    return depth_ == 0 ? at : member_break(at);
  }

  void open(char bracket) {
    char* at = out_.room(break_size() + 1);
    at = value_break(at);
    *at++ = bracket;
    out_.advance_to(at);
    ++depth_;
    first_ = true;
  }

  void close(char bracket) {
    --depth_;
    char* at = out_.room(break_size() + 1);
    if (!first_) at = newline(at, depth_);
    *at++ = bracket;
    out_.advance_to(at);
    // The closed container is a member of the one around it.
    first_ = false;
  }

  /// `s` escaped at `at`, which has room for s.size() + 4 bytes. Plain
  /// bytes are tested and copied eight at a time.
  char* escaped(char* at, std::string_view s) {
    const char* p = s.data();
    const char* const end = p + s.size();
    for (; end - p >= 8; p += 8, at += 8) {
      std::memcpy(at, p, 8);
      if (const std::uint64_t hit = detail::json_special_bytes(p); hit != 0) {
        const auto plain = static_cast<std::size_t>(std::countr_zero(hit) / 8);
        return escaped_rest(
            at + plain, {p + plain, static_cast<std::size_t>(end - p) - plain});
      }
    }
    for (; p != end; ++p) {
      if (detail::kJsonEscape[static_cast<unsigned char>(*p)] != 0) {
        return escaped_rest(at, {p, static_cast<std::size_t>(end - p)});
      }
      *at++ = *p;
    }
    return at;
  }
  /// The rest of a string from its first byte that needs an escape; keeps
  /// room for 4 bytes after it.
  char* escaped_rest(char* at, std::string_view rest);

  StringWriter out_;
  int indent_;
  /// Containers open. A container's members need only whether it is
  /// still empty (`first_`): once one closes, the one around it has a
  /// member.
  std::size_t depth_ = 0;
  bool first_ = false;
  bool after_key_ = false;
};

/// A pull reader over one JSON document. The caller asks for the value
/// it expects next (peek() says what comes); the reader checks the text
/// as it goes and throws JsonParseError on malformed input, with the
/// messages and offsets Json::parse reports (Json::parse is
/// read_value() plus finish()).
///
///   reader.begin_object();
///   while (reader.next_key(key)) { ...read or skip() the value... }
///
/// The reader walks a raw cursor. Whitespace, separators, expect() and
/// the scan of a string without escapes are inline here; decoding
/// escapes, numbers, literals and building an error are out of line.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text)
      : begin_(text.data()),
        at_(text.data()),
        end_(text.data() + text.size()) {}

  /// Type of the next value, without consuming it.
  Json::Type peek() {
    skip_ws();
    switch (peek_char()) {
      case '{': return Json::Type::Object;
      case '[': return Json::Type::Array;
      case '"': return Json::Type::String;
      case 't':
      case 'f': return Json::Type::Bool;
      case 'n': return Json::Type::Null;
      default: return Json::Type::Number;
    }
  }
  /// Enter an object; then next_key() until it returns false at `}`.
  void begin_object() {
    skip_ws();
    expect('{');
    first_ = true;
  }
  bool next_key(std::string& key);
  /// Enter an array; then next_element() until it returns false at `]`.
  void begin_array() {
    skip_ws();
    expect('[');
    first_ = true;
  }
  bool next_element() {
    skip_ws();
    if (first_) {
      first_ = false;
      if (peek_char() == ']') {
        ++at_;
        return false;
      }
      return true;
    }
    return separator(']');
  }
  /// next_key(), with the key read as read_string_view() reads it.
  bool next_key_view(std::string_view& key, StringArena& arena) {
    if (!next_member()) return false;
    key = read_string_view(arena);
    skip_ws();
    expect(':');
    return true;
  }
  /// A string value, replacing the contents of `out`.
  void read_string(std::string& out);
  /// A string value as a view: of the document when the string holds no
  /// escape, otherwise of its decoded text, kept in `arena`. Same checks
  /// and errors as read_string().
  std::string_view read_string_view(StringArena& arena) {
    skip_ws();
    const char* quote = at_;
    expect('"');
    const std::size_t plain = detail::json_plain_run(at_, end_);
    if (at_ + plain != end_ && at_[plain] == '"') {
      const std::string_view view(at_, plain);
      at_ += plain + 1;
      return view;
    }
    at_ = quote;
    return decoded_string_view(arena);
  }
  std::string read_string() {
    std::string out;
    read_string(out);
    return out;
  }
  /// Any value, as a tree.
  Json read_value();
  /// A string value's contents, or the compact JSON text of any other
  /// value (how the recorder formats read a property).
  std::string read_text();
  /// read_text() as a view: a string as read_string_view() reads it, any
  /// other value's compact text kept in `arena`.
  std::string_view read_text_view(StringArena& arena) {
    if (peek() == Json::Type::String) return read_string_view(arena);
    return compact_text_view(arena);
  }
  /// Consume one value, checking it exactly as read_value() would.
  void skip();
  /// The document must end here (trailing whitespace only).
  void finish();

 private:
  [[noreturn]] void fail(const char* message) const;
  [[noreturn]] void fail_expected(char c) const;

  void skip_ws() {
    while (at_ != end_ && kWhitespace[static_cast<unsigned char>(*at_)]) ++at_;
  }
  char peek_char() const {
    if (at_ == end_) fail("unexpected end of input");
    return *at_;
  }
  void expect(char c) {
    if (peek_char() != c) fail_expected(c);
    ++at_;
  }
  /// The comma before a further member or element: false at `close`.
  bool separator(char close) {
    const char c = peek_char();
    if (c != ',' && c != close) {
      fail(close == '}' ? "expected ',' or '}'" : "expected ',' or ']'");
    }
    ++at_;
    return c == ',';
  }
  /// The separator before an object member: false at `}`, true when a
  /// key follows.
  bool next_member() {
    skip_ws();
    if (first_) {
      first_ = false;
      if (peek_char() == '}') {
        ++at_;
        return false;
      }
      return true;
    }
    if (!separator('}')) return false;
    skip_ws();
    return true;
  }
  /// read_string_view() of a string that needs decoding (or is
  /// malformed), from its opening quote.
  std::string_view decoded_string_view(StringArena& arena);
  /// The compact text of the non-string value that comes next.
  std::string_view compact_text_view(StringArena& arena);
  void literal(std::string_view lit);
  /// A number literal, checked and converted into `value`.
  std::string_view number(double& value);
  unsigned hex4();

  static constexpr std::array<bool, 256> kWhitespace = [] {
    std::array<bool, 256> table{};
    for (unsigned char c : {' ', '\n', '\t', '\r'}) table[c] = true;
    return table;
  }();

  const char* begin_;
  const char* at_;
  const char* end_;
  /// True right after begin_object/begin_array, before the first
  /// next_key/next_element: one flag serves every depth, because a
  /// nested container is always finished before its parent moves on.
  bool first_ = false;
  /// skip()'s string buffer, and where read_string_view() decodes an
  /// escaped string before the arena keeps it.
  std::string scratch_;
};

/// Escape a string for embedding in JSON output (without the quotes).
std::string json_escape(std::string_view s);

}  // namespace provmark::util
