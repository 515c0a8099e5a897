// The three observation layers of the simulated operating system.
//
// The paper's central observation (Figure 2) is that the three recorders
// watch the same execution from different vantage points:
//
//   * OPUS interposes on the dynamically linked C library, so it sees
//     libc calls — including failed ones and pure fd-state operations like
//     dup — but is blind to anything that does not go through libc.
//   * SPADE's Linux Audit reporter consumes kernel audit records, which
//     under SPADE's default rules are only emitted for *successful* calls
//     in its rule set, and are reported at syscall exit.
//   * CamFlow hooks Linux Security Module callbacks inside the kernel, so
//     it sees every security-sensitive operation — but only where an LSM
//     hook exists (there is none for dup) and only for the hooks its
//     version implements.
//
// The simulated kernel emits an event on each layer exactly when the real
// layer would observe something; the per-recorder consumers in
// src/systems/ then decide what graph structure to build. Table 2 of the
// paper falls out of this mechanism rather than being hard-coded.
//
// A trial's events and build scratch live in one region owned by its
// trace (util/region.h). An event's strings are views into that region (or
// into literals), and its lists draw from it, so a trace is move-only:
// moving it moves the region whole, and the events stay where they are.
// Everything an event points to is freed with the trace.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/region.h"

namespace provmark::os {

using Pid = int;

/// The observation layers, one bit each. A recorder reads one layer.
enum class Layer : std::uint8_t { Libc = 1, Audit = 2, Lsm = 4 };

/// A set of layers: the ones a trial builds events for.
class Layers {
 public:
  constexpr Layers(Layer layer)  // implicit: a layer is a one-layer set
      : bits_(static_cast<std::uint8_t>(layer)) {}
  static constexpr Layers all() { return Layers(std::uint8_t{7}); }

  constexpr bool has(Layer layer) const {
    return (bits_ & static_cast<std::uint8_t>(layer)) != 0;
  }

 private:
  explicit constexpr Layers(std::uint8_t bits) : bits_(bits) {}
  std::uint8_t bits_;
};

/// Subject credentials attached to audit and LSM events.
struct Credentials {
  int uid = 1000;
  int gid = 1000;
  int euid = 1000;
  int egid = 1000;
  int suid = 1000;
  int sgid = 1000;

  bool operator==(const Credentials&) const = default;
};

/// An event's named fields: a flat list sorted by key, which finds and
/// iterates like the std::map it replaces. Keys and values are views.
class Fields {
 public:
  using value_type = std::pair<std::string_view, std::string_view>;
  using const_iterator = std::pmr::vector<value_type>::const_iterator;

  Fields() = default;
  explicit Fields(std::pmr::memory_resource* memory) : items_(memory) {}

  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  const_iterator find(std::string_view key) const {
    const_iterator it = lower_bound(key);
    return it != end() && it->first == key ? it : end();
  }
  std::size_t count(std::string_view key) const {
    return find(key) != end() ? 1 : 0;
  }
  /// The value of `key`; throws std::out_of_range when it is absent.
  std::string_view at(std::string_view key) const {
    const_iterator it = find(key);
    if (it == end()) throw std::out_of_range("no event field " +
                                             std::string(key));
    return it->second;
  }

  /// Adds `key` = `value` unless `key` is present (std::map::emplace).
  bool emplace(std::string_view key, std::string_view value) {
    const_iterator it = lower_bound(key);
    if (it != end() && it->first == key) return false;
    items_.emplace(it, key, value);
    return true;
  }
  /// Sets `key` to `value`, adding it when absent.
  void set(std::string_view key, std::string_view value) {
    const_iterator it = lower_bound(key);
    if (it != end() && it->first == key) {
      items_[static_cast<std::size_t>(it - begin())].second = value;
    } else {
      items_.emplace(it, key, value);
    }
  }

  bool operator==(const Fields&) const = default;

 private:
  const_iterator lower_bound(std::string_view key) const {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& item, std::string_view k) {
          return item.first < k;
        });
  }

  std::pmr::vector<value_type> items_;
};

/// What the interposed C library sees: one event per wrapped call,
/// successful or not.
struct LibcEvent {
  LibcEvent() = default;
  explicit LibcEvent(std::pmr::memory_resource* memory) : args(memory) {}

  std::string_view function;              ///< libc entry point, e.g. "open"
  std::pmr::vector<std::string_view> args;  ///< stringified arguments
  long ret = 0;                    ///< return value (-1 on failure)
  int err = 0;                     ///< errno when ret == -1
  Pid pid = 0;
  std::uint64_t seq = 0;           ///< global order of the call

  bool operator==(const LibcEvent&) const = default;
};

/// A path record inside an audit event (cwd-relative resolution already
/// applied), mirroring Linux Audit PATH records.
struct AuditPathRecord {
  std::string_view name;  ///< path as passed
  std::uint64_t inode = 0;
  std::string_view nametype;  ///< "NORMAL", "CREATE", "DELETE", "PARENT"

  bool operator==(const AuditPathRecord&) const = default;
};

/// What auditd emits: one record per audited syscall, carrying subject
/// identity and resolved paths. Emitted at syscall *exit* (this ordering
/// is what produces SPADE's disconnected-vfork artifact, §4.2).
struct AuditEvent {
  AuditEvent() = default;
  explicit AuditEvent(std::pmr::memory_resource* memory)
      : paths(memory), fields(memory) {}

  std::string_view syscall;
  bool success = true;
  long exit_code = 0;
  Pid pid = 0;
  Pid ppid = 0;
  Credentials creds;
  std::string_view comm;  ///< process name
  std::string_view exe;   ///< executable path
  std::string_view cwd;
  std::pmr::vector<AuditPathRecord> paths;
  Fields fields;  ///< a0..a3 and call extras
  std::uint64_t serial = 0;  ///< audit serial number (transient)
  std::uint64_t seq = 0;     ///< global order of *emission*

  bool operator==(const AuditEvent&) const = default;
};

/// Information about a kernel object as an LSM hook sees it.
struct LsmObject {
  std::string_view kind;  ///< "file", "directory", "fifo", "link", "task", ...
  std::uint64_t id = 0;  ///< kernel object identity (inode number / pid)
  std::optional<std::string_view> path;  ///< when a path is in scope

  bool operator==(const LsmObject&) const = default;
};

/// What a Linux Security Module hook observes.
struct LsmEvent {
  LsmEvent() = default;
  explicit LsmEvent(std::pmr::memory_resource* memory) : fields(memory) {}

  std::string_view hook;  ///< e.g. "file_open", "inode_rename", "task_fork"
  Pid pid = 0;
  Credentials creds;
  std::optional<LsmObject> object;    ///< primary object
  std::optional<LsmObject> object2;   ///< secondary (e.g. rename target dir)
  Fields fields;
  bool permission_denied = false;  ///< hook fired but access was refused
  std::uint64_t seq = 0;

  bool operator==(const LsmEvent&) const = default;
};

/// The record of one recorded execution, as each layer saw it. A layer
/// the trial did not build (Kernel::Options::layers) is empty.
///
/// The trace owns the trial's region: its events, their strings and
/// lists, the kernel's tables while it ran and whatever a recorder
/// builds from it (Recorder::record) all live there. A trace is
/// move-only; a move, construction or assignment alike, hands the region
/// over whole and copies no event. A moved-from trace may only be
/// destroyed or assigned to.
class EventTrace {
 public:
  /// An empty trace with a region of its own.
  EventTrace() : EventTrace(std::make_shared<util::Region>()) {}
  /// An empty trace in `region`, which the trace shares ownership of.
  explicit EventTrace(std::shared_ptr<util::Region> region)
      : region_(std::move(region)),
        libc(region_->resource()),
        audit(region_->resource()),
        lsm(region_->resource()) {}
  EventTrace(EventTrace&&) noexcept = default;
  EventTrace& operator=(EventTrace&& other) noexcept {
    if (this != &other) {
      std::destroy_at(this);
      std::construct_at(this, std::move(other));
    }
    return *this;
  }
  EventTrace(const EventTrace&) = delete;
  EventTrace& operator=(const EventTrace&) = delete;

  /// The trial's region. Building from a const trace draws from it too:
  /// one trace is recorded by one thread at a time.
  util::Region& region() const { return *region_; }

 private:
  std::shared_ptr<util::Region> region_;  // first: destroyed after the events

 public:
  std::pmr::vector<LibcEvent> libc;
  std::pmr::vector<AuditEvent> audit;
  std::pmr::vector<LsmEvent> lsm;
};

}  // namespace provmark::os
