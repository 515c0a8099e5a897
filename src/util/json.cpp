#include "util/json.h"

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

/// `s` with every byte detail::kJsonEscape names escaped, written at
/// `at`, which has room for 6 bytes per byte of `s`.
char* put_escaped(char* at, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (unsigned char c : s) {
    const char e = detail::kJsonEscape[c];
    if (e == 0) {
      *at++ = static_cast<char>(c);
      continue;
    }
    *at++ = '\\';
    *at++ = e;
    if (e == 'u') {
      *at++ = '0';
      *at++ = '0';
      *at++ = kHex[c >> 4];
      *at++ = kHex[c & 0xF];
    }
  }
  return at;
}

}  // namespace

std::string json_escape(std::string_view s) {
  StringWriter w(s.size());
  w.advance_to(put_escaped(w.room(6 * s.size()), s));
  return w.take();
}

// -- writer -------------------------------------------------------------------

char* JsonWriter::escaped_rest(char* at, std::string_view rest) {
  out_.advance_to(at);
  return put_escaped(out_.room(6 * rest.size() + 4), rest);
}

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
  JsonWriter writer(indent);
  write_to(writer);
  return writer.take();
}

// -- reader -------------------------------------------------------------------

void JsonReader::fail(const char* message) const {
  throw JsonParseError(message, static_cast<std::size_t>(at_ - begin_));
}

void JsonReader::fail_expected(char c) const {
  fail((std::string("expected '") + c + "'").c_str());
}

bool JsonReader::next_key(std::string& key) {
  if (!next_member()) return false;
  read_string(key);
  skip_ws();
  expect(':');
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
    const std::size_t plain = detail::json_plain_run(at_, end_);
    out.append(at_, plain);
    at_ += plain;
    const char c = peek_char();
    ++at_;
    if (c == '"') return;
    if (c != '\\') fail("unescaped control character");
    const char e = peek_char();
    ++at_;
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
          if (peek_char() != '\\') {
            ++at_;
            fail("bad surrogate pair");
          }
          ++at_;
          if (peek_char() != 'u') {
            ++at_;
            fail("bad surrogate pair");
          }
          ++at_;
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

std::string_view JsonReader::decoded_string_view(StringArena& arena) {
  read_string(scratch_);
  return arena.keep(scratch_);
}

std::string_view JsonReader::compact_text_view(StringArena& arena) {
  return arena.keep(read_value().dump());
}

unsigned JsonReader::hex4() {
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = peek_char();
    ++at_;
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
  if (std::string_view(at_, static_cast<std::size_t>(end_ - at_))
          .substr(0, lit.size()) != lit) {
    fail("invalid literal");
  }
  at_ += lit.size();
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Whether `lit` is an RFC 8259 number:
/// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
bool rfc8259_number(std::string_view lit) {
  std::size_t i = 0;
  auto digits = [&] {
    const std::size_t from = i;
    while (i < lit.size() && is_digit(lit[i])) ++i;
    return i > from;
  };
  if (i < lit.size() && lit[i] == '-') ++i;
  if (i < lit.size() && lit[i] == '0') {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (i < lit.size() && lit[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < lit.size() && (lit[i] == 'e' || lit[i] == 'E')) {
    ++i;
    if (i < lit.size() && (lit[i] == '+' || lit[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == lit.size();
}

}  // namespace

std::string_view JsonReader::number(double& value) {
  const char* start = at_;
  if (peek_char() == '-') ++at_;
  while (at_ != end_ && (is_digit(*at_) || *at_ == '.' || *at_ == 'e' ||
                         *at_ == 'E' || *at_ == '+' || *at_ == '-')) {
    ++at_;
  }
  if (at_ == start) fail("invalid number");
  const std::string_view lit(start, static_cast<std::size_t>(at_ - start));
  const auto [ptr, ec] =
      std::from_chars(lit.data(), lit.data() + lit.size(), value);
  if (!rfc8259_number(lit) || ec != std::errc() ||
      ptr != lit.data() + lit.size()) {
    at_ = start;
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
  if (at_ != end_) fail("trailing content");
}

Json Json::parse(std::string_view text) {
  JsonReader reader(text);
  Json value = reader.read_value();
  reader.finish();
  return value;
}

}  // namespace provmark::util
