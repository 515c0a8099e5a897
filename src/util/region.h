// A memory region: one monotonic arena for objects that die together.
//
// The trial path allocates, builds and then discards whole groups of
// objects at once, so each group draws from one region: allocation is a
// pointer bump, freeing an element does nothing, and the whole region
// goes back to the heap in one step when its owner drops it. The first
// chunk is part of the Region object itself; each further chunk is half
// again as large as the one before. Three owners use it:
//   * a recorded trial (os::EventTrace): the simulated kernel's tables,
//     the event trace and the recorder's build scratch;
//   * a read trial (core::TrialSet): the reader's view of the native
//     document and its scratch, and the trial's graph::CompactGraph and
//     matcher::InternedGraph, properties interned later included;
//   * one matcher call (matcher.cpp's SearchEngine, on the stack): the
//     candidate lists, the search order, the bound and the search state,
//     with one more region per parallel worker.
// A std::pmr container copied out of a region goes to the heap (the
// copy takes the default resource), so a copy outlives the region; a
// moved one still draws from it.
//
// A region is not thread-safe: one thread allocates from it at a time.
// Nothing static may draw from a region, since it does not outlive its
// owner, and everything that draws from it must be destroyed before it.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory_resource>
#include <string_view>

namespace provmark::util {

class Region {
 public:
  Region()
      : memory_(initial_, sizeof initial_, std::pmr::new_delete_resource()) {}
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  std::pmr::memory_resource* resource() { return &memory_; }

  /// A copy of `s` owned by the region.
  std::string_view keep(std::string_view s) {
    if (s.empty()) return {};
    char* at = static_cast<char*>(memory_.allocate(s.size(), 1));
    s.copy(at, s.size());
    return {at, s.size()};
  }

  /// The concatenation of `parts`, owned by the region.
  std::string_view join(std::initializer_list<std::string_view> parts) {
    std::size_t size = 0;
    for (std::string_view part : parts) size += part.size();
    if (size == 0) return {};
    char* at = static_cast<char*>(memory_.allocate(size, 1));
    char* end = at;
    for (std::string_view part : parts) end += part.copy(end, part.size());
    return {at, size};
  }

 private:
  static constexpr std::size_t kInitialBytes = 8192;

  alignas(std::max_align_t) std::byte initial_[kInitialBytes];
  std::pmr::monotonic_buffer_resource memory_;
};

}  // namespace provmark::util
