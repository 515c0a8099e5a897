#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace provmark::util {

Json::Type Json::type() const {
  switch (value_.index()) {
    case 0: return Type::Null;
    case 1: return Type::Bool;
    case 2: return Type::Number;
    case 3: return Type::String;
    case 4: return Type::Array;
    default: return Type::Object;
  }
}

bool Json::as_bool() const { return std::get<bool>(value_); }

double Json::as_double() const { return std::get<Number>(value_).value; }

std::int64_t Json::as_int() const {
  return static_cast<std::int64_t>(std::llround(as_double()));
}

const std::string& Json::as_string() const {
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const { return std::get<Array>(value_); }
Json::Array& Json::as_array() { return std::get<Array>(value_); }
const Json::Object& Json::as_object() const {
  return std::get<Object>(value_);
}
Json::Object& Json::as_object() { return std::get<Object>(value_); }

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* j = find(key);
  if (j == nullptr) {
    throw std::out_of_range("missing JSON key: " + std::string(key));
  }
  return *j;
}

void Json::set(std::string_view key, Json value) {
  if (!is_object()) value_ = Object{};
  for (auto& [k, v] : as_object()) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  as_object().emplace_back(std::string(key), std::move(value));
}

void Json::push_back(Json value) {
  if (!is_array()) value_ = Array{};
  as_array().push_back(std::move(value));
}

bool Json::operator==(const Json& other) const {
  if (type() != other.type()) return false;
  switch (type()) {
    case Type::Null: return true;
    case Type::Bool: return as_bool() == other.as_bool();
    case Type::Number: return as_double() == other.as_double();
    case Type::String: return as_string() == other.as_string();
    case Type::Array: return as_array() == other.as_array();
    case Type::Object: return as_object() == other.as_object();
  }
  return false;
}

namespace {

/// json_escape(s) appended to `out`.
template <typename String>
void append_json_escaped(String& out, std::string_view s) {
  std::size_t run = 0;  // start of the pending run of plain characters
  for (std::size_t i = 0; i < s.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

// -- writer -------------------------------------------------------------------

template <typename String>
void BasicJsonWriter<String>::newline(std::size_t depth) {
  if (indent_ <= 0) return;
  out_ += '\n';
  out_.append(static_cast<std::size_t>(indent_) * depth, ' ');
}

template <typename String>
void BasicJsonWriter<String>::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (empty_.empty()) return;  // the document's top-level value
  if (!empty_.back()) out_ += ',';
  empty_.back() = false;
  newline(empty_.size());
}

template <typename String>
void BasicJsonWriter<String>::open(char bracket) {
  before_value();
  out_ += bracket;
  empty_.push_back(true);
}

template <typename String>
void BasicJsonWriter<String>::close(char bracket) {
  bool was_empty = empty_.back();
  empty_.pop_back();
  if (!was_empty) newline(empty_.size());
  out_ += bracket;
}

template <typename String>
void BasicJsonWriter<String>::key(std::string_view k) {
  if (!empty_.back()) out_ += ',';
  empty_.back() = false;
  newline(empty_.size());
  out_ += '"';
  append_json_escaped(out_, k);
  out_ += indent_ > 0 ? "\": " : "\":";
  after_key_ = true;
}

template <typename String>
void BasicJsonWriter<String>::string(std::string_view s) {
  before_value();
  out_ += '"';
  append_json_escaped(out_, s);
  out_ += '"';
}

template <typename String>
void BasicJsonWriter<String>::literal(std::string_view text) {
  before_value();
  out_ += text;
}

template class BasicJsonWriter<std::string>;
template class BasicJsonWriter<std::pmr::string>;

namespace {

std::string number_text(double value, const std::string& original) {
  if (!original.empty()) return original;
  if (value == std::llround(value) && std::abs(value) < 1e15) {
    return std::to_string(std::llround(value));
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void Json::write_to(JsonWriter& w) const {
  switch (type()) {
    case Type::Null: w.literal("null"); break;
    case Type::Bool: w.literal(as_bool() ? "true" : "false"); break;
    case Type::Number:
      w.literal(number_text(as_double(), std::get<Number>(value_).text));
      break;
    case Type::String: w.string(as_string()); break;
    case Type::Array:
      w.begin_array();
      for (const Json& element : as_array()) element.write_to(w);
      w.end_array();
      break;
    case Type::Object:
      w.begin_object();
      for (const auto& [k, v] : as_object()) {
        w.key(k);
        v.write_to(w);
      }
      w.end_object();
      break;
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  JsonWriter writer(out, indent);
  write_to(writer);
  return out;
}

// -- reader -------------------------------------------------------------------

void JsonReader::fail(const std::string& message) const {
  throw JsonParseError(message, pos_);
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

char JsonReader::peek_char() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

char JsonReader::take() {
  char c = peek_char();
  ++pos_;
  return c;
}

void JsonReader::expect(char c) {
  if (take() != c) {
    --pos_;
    fail(std::string("expected '") + c + "'");
  }
}

Json::Type JsonReader::peek() {
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

void JsonReader::begin_object() {
  skip_ws();
  expect('{');
  first_ = true;
}

bool JsonReader::next_member() {
  skip_ws();
  if (first_) {
    first_ = false;
    if (peek_char() == '}') {
      ++pos_;
      return false;
    }
  } else {
    char c = take();
    if (c == '}') return false;
    if (c != ',') {
      --pos_;
      fail("expected ',' or '}'");
    }
    skip_ws();
  }
  return true;
}

bool JsonReader::next_key(std::string& key) {
  if (!next_member()) return false;
  read_string(key);
  skip_ws();
  expect(':');
  return true;
}

bool JsonReader::next_key_view(std::string_view& key, StringArena& arena) {
  if (!next_member()) return false;
  key = read_string_view(arena);
  skip_ws();
  expect(':');
  return true;
}

void JsonReader::begin_array() {
  skip_ws();
  expect('[');
  first_ = true;
}

bool JsonReader::next_element() {
  skip_ws();
  if (first_) {
    first_ = false;
    if (peek_char() == ']') {
      ++pos_;
      return false;
    }
    return true;
  }
  char c = take();
  if (c == ']') return false;
  if (c != ',') {
    --pos_;
    fail("expected ',' or ']'");
  }
  return true;
}

namespace {

void append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code >> 18));
    out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

}  // namespace

void JsonReader::read_string(std::string& out) {
  skip_ws();
  expect('"');
  out.clear();
  while (true) {
    // Copy the run of plain characters up to the next quote, escape or
    // control character in one append.
    std::size_t end = pos_;
    while (end < text_.size()) {
      unsigned char c = static_cast<unsigned char>(text_[end]);
      if (c == '"' || c == '\\' || c < 0x20) break;
      ++end;
    }
    out.append(text_.data() + pos_, end - pos_);
    pos_ = end;
    char c = take();
    if (c == '"') return;
    if (c != '\\') fail("unescaped control character");
    char e = take();
    switch (e) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        unsigned code = hex4();
        if (code >= 0xD800 && code <= 0xDBFF) {
          // Surrogate pair.
          if (take() != '\\' || take() != 'u') fail("bad surrogate pair");
          unsigned low = hex4();
          if (low < 0xDC00 || low > 0xDFFF) fail("bad low surrogate");
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        append_utf8(out, code);
        break;
      }
      default: fail("bad escape");
    }
  }
}

std::string_view JsonReader::read_string_view(StringArena& arena) {
  skip_ws();
  const std::size_t quote = pos_;
  expect('"');
  std::size_t end = pos_;
  while (end < text_.size()) {
    unsigned char c = static_cast<unsigned char>(text_[end]);
    if (c == '"' || c == '\\' || c < 0x20) break;
    ++end;
  }
  if (end < text_.size() && text_[end] == '"') {
    std::string_view plain = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    return plain;
  }
  // An escape, a control character or the end of input: read_string
  // decodes (or rejects) it from the opening quote.
  pos_ = quote;
  read_string(scratch_);
  return arena.keep(scratch_);
}

unsigned JsonReader::hex4() {
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    char c = take();
    code <<= 4;
    if (c >= '0' && c <= '9') {
      code += static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      code += static_cast<unsigned>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      code += static_cast<unsigned>(c - 'A' + 10);
    } else {
      fail("bad hex digit");
    }
  }
  return code;
}

void JsonReader::literal(std::string_view lit) {
  if (text_.substr(pos_, lit.size()) != lit) fail("invalid literal");
  pos_ += lit.size();
}

std::string_view JsonReader::number(double& value) {
  std::size_t start = pos_;
  if (peek_char() == '-') ++pos_;
  while (pos_ < text_.size() &&
         (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
          text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
          text_[pos_] == '+' || text_[pos_] == '-')) {
    ++pos_;
  }
  if (pos_ == start) fail("invalid number");
  std::string_view lit = text_.substr(start, pos_ - start);
  auto [ptr, ec] = std::from_chars(lit.data(), lit.data() + lit.size(), value);
  if (ec != std::errc() || ptr != lit.data() + lit.size()) {
    pos_ = start;
    fail("invalid number");
  }
  return lit;
}

Json JsonReader::read_value() {
  switch (peek()) {
    case Json::Type::Object: {
      begin_object();
      Json obj = Json::object();
      std::string key;
      while (next_key(key)) {
        obj.as_object().emplace_back(std::move(key), read_value());
      }
      return obj;
    }
    case Json::Type::Array: {
      begin_array();
      Json arr = Json::array();
      while (next_element()) arr.as_array().push_back(read_value());
      return arr;
    }
    case Json::Type::String: return Json(read_string());
    case Json::Type::Bool:
      if (peek_char() == 't') {
        literal("true");
        return Json(true);
      }
      literal("false");
      return Json(false);
    case Json::Type::Null: literal("null"); return Json(nullptr);
    case Json::Type::Number: {
      double value = 0;
      std::string_view lit = number(value);
      // Preserve the literal for exact round-tripping of identifiers.
      return Json::number_with_text(value, std::string(lit));
    }
  }
  return Json();
}

std::string JsonReader::read_text() {
  if (peek() == Json::Type::String) return read_string();
  return read_value().dump();
}

std::string_view JsonReader::read_text_view(StringArena& arena) {
  if (peek() == Json::Type::String) return read_string_view(arena);
  return arena.keep(read_value().dump());
}

void JsonReader::skip() {
  switch (peek()) {
    case Json::Type::Object:
      begin_object();
      while (next_key(scratch_)) skip();
      break;
    case Json::Type::Array:
      begin_array();
      while (next_element()) skip();
      break;
    case Json::Type::String: read_string(scratch_); break;
    case Json::Type::Bool:
      literal(peek_char() == 't' ? "true" : "false");
      break;
    case Json::Type::Null: literal("null"); break;
    case Json::Type::Number: {
      double value = 0;
      number(value);
      break;
    }
  }
}

void JsonReader::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing content");
}

Json Json::parse(std::string_view text) {
  JsonReader reader(text);
  Json value = reader.read_value();
  reader.finish();
  return value;
}

}  // namespace provmark::util
