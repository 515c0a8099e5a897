// Small string utilities shared across the library.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory_resource>
#include <string>
#include <string_view>
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

/// The unsigned number `text` spells in `base` (2..36): digits only, so no
/// sign, no whitespace and nothing after them, and at most 2^64 - 1.
/// Throws std::invalid_argument for anything else, the empty text too.
std::uint64_t parse_u64(std::string_view text, int base = 10);

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
