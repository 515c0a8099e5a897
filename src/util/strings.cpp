#include "util/strings.h"

#include <algorithm>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <new>
#include <stdexcept>
#include <utility>

namespace provmark::util {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_nonempty(std::string_view s, char delim) {
  std::vector<std::string> out;
  for (const std::string& piece : split(s, delim)) {
    std::string_view t = trim(piece);
    if (!t.empty()) out.emplace_back(t);
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\n' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\n' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out += s.substr(start);
      return out;
    }
    out += s.substr(start, pos - start);
    out += to;
    start = pos + from.size();
  }
}

StringArena::~StringArena() { release(); }

void StringArena::release() {
  while (newest_ != nullptr) {
    Chunk* previous = newest_->previous;
    memory_->deallocate(newest_, sizeof(Chunk) + newest_->size,
                        alignof(Chunk));
    newest_ = previous;
  }
}

StringArena::StringArena(StringArena&& other) noexcept
    : memory_(other.memory_),
      newest_(std::exchange(other.newest_, nullptr)),
      free_(std::exchange(other.free_, nullptr)),
      left_(std::exchange(other.left_, 0)),
      next_size_(other.next_size_) {}

StringArena& StringArena::operator=(StringArena&& other) noexcept {
  if (this != &other) {
    release();
    memory_ = other.memory_;
    newest_ = std::exchange(other.newest_, nullptr);
    free_ = std::exchange(other.free_, nullptr);
    left_ = std::exchange(other.left_, 0);
    next_size_ = other.next_size_;
  }
  return *this;
}

std::string_view StringArena::keep(std::string_view s) {
  if (s.size() > left_) {
    const std::size_t size = std::max(next_size_, s.size());
    auto* chunk = static_cast<Chunk*>(
        memory_->allocate(sizeof(Chunk) + size, alignof(Chunk)));
    newest_ = new (chunk) Chunk{newest_, size};
    free_ = reinterpret_cast<char*>(chunk + 1);
    left_ = size;
    next_size_ = size * 2;
  }
  char* at = free_;
  std::copy(s.begin(), s.end(), at);
  free_ += s.size();
  left_ -= s.size();
  return {at, s.size()};
}

void StringWriter::grow(std::size_t n) {
  const auto used = static_cast<std::size_t>(cur_ - out_.data());
  out_.resize(std::max(out_.size() * 2, used + n));
  cur_ = out_.data() + used;
  end_ = out_.data() + out_.size();
}

std::string escape_field(std::string_view s) {
  if (s.empty()) return "\\0";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case ' ': out += "\\s"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

std::string unescape_field(std::string_view s) {
  if (s == "\\0") return "";
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= s.size()) {
      throw std::invalid_argument("dangling escape in field");
    }
    switch (s[i]) {
      case '\\': out += '\\'; break;
      case 's': out += ' '; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default:
        throw std::invalid_argument(std::string("unknown escape '\\") + s[i] +
                                    "'");
    }
  }
  return out;
}

std::size_t FieldReader::left() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < rest_.size(); ++i) {
    count += rest_[i] != ' ' && (i == 0 || rest_[i - 1] == ' ');
  }
  return count;
}

std::string_view FieldReader::word(std::string_view what) {
  const std::size_t start = rest_.find_first_not_of(' ');
  if (start == std::string_view::npos) {
    throw std::invalid_argument("missing " + std::string(what));
  }
  rest_.remove_prefix(start);
  const std::size_t stop = std::min(rest_.find(' '), rest_.size());
  const std::string_view field = rest_.substr(0, stop);
  rest_.remove_prefix(stop);
  return field;
}

void FieldReader::expect(std::string_view keyword) {
  const std::string_view field = word(keyword);
  if (field != keyword) {
    throw std::invalid_argument(
        format("expected '%.*s', got '%.*s'", static_cast<int>(keyword.size()),
               keyword.data(), static_cast<int>(field.size()), field.data()));
  }
}

std::string FieldReader::text(std::string_view what) {
  const std::string_view field = word(what);
  try {
    return unescape_field(field);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string(what) + " '" +
                                std::string(field) + "': " + e.what());
  }
}

void FieldReader::end() const {
  FieldReader rest = *this;
  if (rest.left() == 0) return;
  throw std::invalid_argument("unexpected field '" +
                              std::string(rest.word("field")) +
                              "' after the last one");
}

void FieldReader::bad_number(std::string_view what, std::string_view field,
                             const char* kind) {
  throw std::invalid_argument(std::string(what) + " '" + std::string(field) +
                              "' is not " + kind);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot read " + path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace provmark::util
