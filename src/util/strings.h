// Small string utilities shared across the library.
#pragma once

#include <cstddef>
#include <memory_resource>
#include <string>
#include <string_view>
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

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace provmark::util
