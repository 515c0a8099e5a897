// The memory region of one recorded trial.
//
// A trial allocates, builds and then discards everything at once: the
// simulated kernel's tables, the event trace and the recorder's build
// scratch all die together once the native document is written. So they
// all draw from one monotonic region, owned by the trial's
// os::EventTrace: allocation is a pointer bump, freeing an element does
// nothing, and the whole region goes back to the heap in one step when
// the last owner drops it. The first chunk is part of the Region object
// itself; each further chunk is half again as large as the one before.
//
// A region is not thread-safe: one trial is built by one thread at a
// time. Nothing static may draw from a region, since it does not outlive
// the trial.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory_resource>
#include <string_view>

namespace provmark::os {

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

}  // namespace provmark::os
