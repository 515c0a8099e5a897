// Small string utilities shared across the library.
#pragma once

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory_resource>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace provmark::util {

/// Split on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on a delimiter and drop empty fields after trimming each piece.
std::vector<std::string> split_nonempty(std::string_view s, char delim);

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Join pieces with a separator.
std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// The number `text` spells, or nothing. The whole text is the number: no
/// whitespace, no '+' and nothing after it, and the empty text is none.
/// An integer type reads digits in `base` (2..36) and must hold the value;
/// an unsigned type takes no sign. A floating-point type reads decimal or
/// exponent form (`base` is ignored) and takes only finite values, so
/// `nan`, `inf` and `1e999` are none.
template <class T>
std::optional<T> parse_number(std::string_view text, int base = 10) {
  // std::from_chars skips no whitespace, takes no '+', fails on no digits
  // and reports overflow, so a full, error-free, finite parse is exactly
  // the grammar above.
  T value{};
  const char* end = text.data() + text.size();
  std::from_chars_result read;
  if constexpr (std::is_floating_point_v<T>) {
    read = std::from_chars(text.data(), end, value);
    if (!std::isfinite(value)) return std::nullopt;
  } else {
    read = std::from_chars(text.data(), end, value, base);
  }
  if (read.ec != std::errc() || read.ptr != end) return std::nullopt;
  return value;
}

/// Escape `s` into one field: '\\' -> "\\\\", ' ' -> "\\s", '\t' -> "\\t",
/// '\n' -> "\\n", '\r' -> "\\r". The empty text is the field "\\0".
std::string escape_field(std::string_view s);

/// Inverse of escape_field. Throws std::invalid_argument on a dangling or
/// unknown escape, which is how a torn serve journal tail is detected.
std::string unescape_field(std::string_view s);

/// Reads the fields of one record line in order: the serve wire, the
/// serve journal, the replication link and shard records all read
/// their lines through it. A field is a run of bytes other than ' ';
/// fields are separated by one or more spaces, and no other byte (tab,
/// '\r') separates or is trimmed. Each failure throws
/// std::invalid_argument naming the field and quoting it.
class FieldReader {
 public:
  /// Reads `line`, which must outlive the reader.
  explicit FieldReader(std::string_view line) : rest_(line) {}

  /// The number of fields not read yet.
  std::size_t left() const;

  /// The next field as written (not unescaped); `what` names it.
  std::string_view word(std::string_view what);

  /// Reads the next field, which must be `keyword`.
  void expect(std::string_view keyword);

  /// The next field as a T, by parse_number's rules.
  template <class T>
  T number(std::string_view what, int base = 10) {
    const std::string_view field = word(what);
    const std::optional<T> value = parse_number<T>(field, base);
    if (!value) {
      bad_number(what, field,
                 std::is_floating_point_v<T> ? "a finite number"
                 : std::is_unsigned_v<T>     ? "an unsigned integer in range"
                                             : "an integer in range");
    }
    return *value;
  }

  /// The next field unescaped (unescape_field).
  std::string text(std::string_view what);

  /// Throws unless every field has been read.
  void end() const;

 private:
  [[noreturn]] static void bad_number(std::string_view what,
                                      std::string_view field,
                                      const char* kind);

  std::string_view rest_;
};

/// `read()`, with a std::invalid_argument it throws (a FieldReader
/// failure, say) rethrown as an `Error` reading "<prefix>: <message>".
template <class Error, class Read>
auto read_fields(std::string_view prefix, Read read) {
  try {
    return read();
  } catch (const std::invalid_argument& e) {
    throw Error(std::string(prefix) + ": " + e.what());
  }
}

/// The bytes of the file at `path`. Throws std::runtime_error("cannot read
/// <path>") when it cannot be opened.
std::string read_file(const std::string& path);

/// Replace every occurrence of `from` with `to`.
std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to);

/// Owns strings that views elsewhere point into. Keeping a string never
/// moves the ones kept before it, and moving the arena moves none of them,
/// so a view into an arena stays valid as long as the arena (or the arena
/// it was moved into) lives.
///
/// The bytes go into chunks that double in size as the arena grows, so
/// keeping a string costs a copy and, now and then, one allocation. The
/// chunks come from a memory resource (the heap by default; a trial's
/// region on the trial path) and link to each other, so the arena keeps
/// no list of its own. A moved arena takes its chunks and their resource
/// along.
class StringArena {
 public:
  StringArena() = default;
  /// An empty arena whose chunks come from `memory`.
  explicit StringArena(std::pmr::memory_resource* memory) : memory_(memory) {}
  ~StringArena();
  StringArena(StringArena&& other) noexcept;
  StringArena& operator=(StringArena&& other) noexcept;
  StringArena(const StringArena&) = delete;
  StringArena& operator=(const StringArena&) = delete;

  /// A view of a copy of `s` owned by the arena.
  std::string_view keep(std::string_view s);

 private:
  /// Starts each chunk; the chunk's bytes follow it.
  struct Chunk {
    Chunk* previous;
    std::size_t size;
  };

  void release();

  std::pmr::memory_resource* memory_ = std::pmr::get_default_resource();
  Chunk* newest_ = nullptr;
  char* free_ = nullptr;    ///< first unused byte of the newest chunk
  std::size_t left_ = 0;    ///< unused bytes from free_ on
  std::size_t next_size_ = 256;  ///< size of the next chunk
};

/// Eight bytes from `p` as one word whose lowest byte is p[0], for the
/// byte tests below.
inline std::uint64_t load_word(const char* p) {
  std::uint64_t word;
  std::memcpy(&word, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

/// The high bit of each byte of `word` that equals `c`. The mask is
/// exact from the lowest byte up to the first hit (a borrow only carries
/// upward), so std::countr_zero(mask) / 8 is the first hit's index, also
/// for an OR of such masks.
inline std::uint64_t bytes_equal(std::uint64_t word, char c) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  const std::uint64_t x = word ^ (kOnes * static_cast<unsigned char>(c));
  return (x - kOnes) & ~x & (kOnes * 0x80);
}

/// The high bit of each byte of `word` below `n`, which is at most 0x80;
/// exact as bytes_equal's.
inline std::uint64_t bytes_below(std::uint64_t word, unsigned char n) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  return (word - kOnes * n) & ~word & (kOnes * 0x80);
}

/// Builds a std::string through a raw cursor, so that writing a token
/// costs one capacity check (room()) and plain stores, not one check per
/// character. The string starts with room for `expected` bytes (the
/// caller's estimate of the whole text) and doubles when a token does
/// not fit; take() trims it to the bytes written and hands it over.
class StringWriter {
 public:
  explicit StringWriter(std::size_t expected) {
    out_.resize(std::max<std::size_t>(expected, 64));
    cur_ = out_.data();
    end_ = cur_ + out_.size();
  }
  StringWriter(const StringWriter&) = delete;
  StringWriter& operator=(const StringWriter&) = delete;

  /// The cursor, with room for at least `n` more bytes behind it. Write
  /// there, then hand the advanced cursor to advance_to().
  char* room(std::size_t n) {
    if (n > static_cast<std::size_t>(end_ - cur_)) grow(n);
    return cur_;
  }
  void advance_to(char* at) { cur_ = at; }

  /// `s` copied behind the cursor.
  void append(std::string_view s) {
    char* at = room(s.size());
    std::memcpy(at, s.data(), s.size());
    cur_ = at + s.size();
  }

  /// The text written. The writer is spent: call this last, once.
  std::string take() {
    out_.resize(static_cast<std::size_t>(cur_ - out_.data()));
    return std::move(out_);
  }

 private:
  void grow(std::size_t n);

  std::string out_;
  char* cur_;
  char* end_;
};

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace provmark::util
