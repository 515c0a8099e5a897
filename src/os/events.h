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
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

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

/// What the interposed C library sees: one event per wrapped call,
/// successful or not.
struct LibcEvent {
  std::string function;            ///< libc entry point, e.g. "open"
  std::vector<std::string> args;   ///< stringified arguments
  long ret = 0;                    ///< return value (-1 on failure)
  int err = 0;                     ///< errno when ret == -1
  Pid pid = 0;
  std::uint64_t seq = 0;           ///< global order of the call

  bool operator==(const LibcEvent&) const = default;
};

/// A path record inside an audit event (cwd-relative resolution already
/// applied), mirroring Linux Audit PATH records.
struct AuditPathRecord {
  std::string name;     ///< path as passed
  std::uint64_t inode = 0;
  std::string nametype;  ///< "NORMAL", "CREATE", "DELETE", "PARENT"

  bool operator==(const AuditPathRecord&) const = default;
};

/// What auditd emits: one record per audited syscall, carrying subject
/// identity and resolved paths. Emitted at syscall *exit* (this ordering
/// is what produces SPADE's disconnected-vfork artifact, §4.2).
struct AuditEvent {
  std::string syscall;
  bool success = true;
  long exit_code = 0;
  Pid pid = 0;
  Pid ppid = 0;
  Credentials creds;
  std::string comm;  ///< process name
  std::string exe;   ///< executable path
  std::string cwd;
  std::vector<AuditPathRecord> paths;
  std::map<std::string, std::string> fields;  ///< a0..a3 and call extras
  std::uint64_t serial = 0;  ///< audit serial number (transient)
  std::uint64_t seq = 0;     ///< global order of *emission*

  bool operator==(const AuditEvent&) const = default;
};

/// Information about a kernel object as an LSM hook sees it.
struct LsmObject {
  std::string kind;  ///< "file", "directory", "fifo", "link", "task", ...
  std::uint64_t id = 0;  ///< kernel object identity (inode number / pid)
  std::optional<std::string> path;  ///< when a path is in scope

  bool operator==(const LsmObject&) const = default;
};

/// What a Linux Security Module hook observes.
struct LsmEvent {
  std::string hook;  ///< e.g. "file_open", "inode_rename", "task_fork"
  Pid pid = 0;
  Credentials creds;
  std::optional<LsmObject> object;    ///< primary object
  std::optional<LsmObject> object2;   ///< secondary (e.g. rename target dir)
  std::map<std::string, std::string> fields;
  bool permission_denied = false;  ///< hook fired but access was refused
  std::uint64_t seq = 0;

  bool operator==(const LsmEvent&) const = default;
};

/// The record of one recorded execution, as each layer saw it. A layer
/// the trial did not build (Kernel::Options::layers) is empty.
struct EventTrace {
  std::vector<LibcEvent> libc;
  std::vector<AuditEvent> audit;
  std::vector<LsmEvent> lsm;
};

}  // namespace provmark::os
