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
// Object member order is preserved (insertion order) so that serialized
// recorder output is stable across runs given stable input; ProvMark's
// generalization stage depends on run-to-run differences coming only from
// genuinely transient values, not from container iteration order.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <memory_resource>
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
template <typename String>
class BasicJsonWriter;
using JsonWriter = BasicJsonWriter<std::string>;

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

/// Appends JSON text to a string as the caller writes values, in one
/// layout: compact when `indent` <= 0, otherwise one member or element
/// per line, `indent` spaces per level, `"key": value`, and empty
/// containers as `{}` / `[]`. Inside an object each value follows a
/// key(); the caller keeps begin/end calls balanced. The writer's own
/// bookkeeping draws from the output string's allocator. Instantiated
/// for std::string (JsonWriter) and std::pmr::string.
template <typename String>
class BasicJsonWriter {
 public:
  explicit BasicJsonWriter(String& out, int indent = 0)
      : out_(out), indent_(indent), empty_(out.get_allocator()) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }
  void key(std::string_view k);
  void string(std::string_view s);
  /// A value written verbatim: a number literal, true, false or null.
  void literal(std::string_view text);

 private:
  using BoolAllocator = typename std::allocator_traits<
      typename String::allocator_type>::template rebind_alloc<bool>;

  void open(char bracket);
  void close(char bracket);
  /// Separator and line break before an array element; nothing after a
  /// key.
  void before_value();
  void newline(std::size_t depth);

  String& out_;
  int indent_;
  /// Per open container: true until its first member or element.
  std::vector<bool, BoolAllocator> empty_;
  bool after_key_ = false;
};

extern template class BasicJsonWriter<std::string>;
extern template class BasicJsonWriter<std::pmr::string>;

/// A pull reader over one JSON document. The caller asks for the value
/// it expects next (peek() says what comes); the reader checks the text
/// as it goes and throws JsonParseError on malformed input, with the
/// messages and offsets Json::parse reports (Json::parse is
/// read_value() plus finish()).
///
///   reader.begin_object();
///   while (reader.next_key(key)) { ...read or skip() the value... }
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Type of the next value, without consuming it.
  Json::Type peek();
  /// Enter an object; then next_key() until it returns false at `}`.
  void begin_object();
  bool next_key(std::string& key);
  /// Enter an array; then next_element() until it returns false at `]`.
  void begin_array();
  bool next_element();
  /// next_key(), with the key read as read_string_view() reads it.
  bool next_key_view(std::string_view& key, StringArena& arena);
  /// A string value, replacing the contents of `out`.
  void read_string(std::string& out);
  /// A string value as a view: of the document when the string holds no
  /// escape, otherwise of its decoded text, kept in `arena`. Same checks
  /// and errors as read_string().
  std::string_view read_string_view(StringArena& arena);
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
  std::string_view read_text_view(StringArena& arena);
  /// Consume one value, checking it exactly as read_value() would.
  void skip();
  /// The document must end here (trailing whitespace only).
  void finish();

 private:
  [[noreturn]] void fail(const std::string& message) const;
  /// The separator before an object member: false at `}`, true when a
  /// key follows.
  bool next_member();
  void skip_ws();
  char peek_char();
  char take();
  void expect(char c);
  void literal(std::string_view lit);
  /// A number literal, checked and converted into `value`.
  std::string_view number(double& value);
  unsigned hex4();

  std::string_view text_;
  std::size_t pos_ = 0;
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
