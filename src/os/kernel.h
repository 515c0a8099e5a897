// The simulated kernel: processes, file descriptors, credentials, and a
// syscall engine that emits events on the three observation layers
// (libc / audit / LSM) exactly where the real layers would observe them.
//
// Recording semantics follow the paper's methodology (§3.2): staging-
// directory setup happens before recording starts (stage_* helpers emit no
// events); the monitored program's start-up boilerplate (fork from the
// harness shell, execve, loader activity) *is* recorded, which is why
// ProvMark needs background-program subtraction at all.
//
// Memory: the kernel's VFS, process and fd tables, the events it emits
// and every string they hold draw from one trial region (util/region.h),
// shared by the kernel and its trace. Once the kernel is gone the trace
// is the region's one owner.
//
// Deliberately modelled idiosyncrasies (each drives a Table 2 cell or a
// §4 observation):
//   * Audit records are emitted at syscall exit, and a vfork'ing parent is
//     suspended until its child exits — so the child's records precede the
//     parent's vfork record (SPADE's disconnected vfork child, note DV).
//   * Audit rules (SPADE defaults) cover only a subset of syscalls and
//     only successful calls.
//   * There is no LSM hook for dup/dup2/dup3 — the fd table is process
//     state invisible to LSM.
//   * inode_free LSM events (close) are deferred by RCU and flushed
//     unreliably before recording stops — emitted with probability
//     `free_record_probability` per trial (note LP for CamFlow close).
//   * kill / exit produce no distinguishing events on any layer in the
//     baseline configurations (note LP).
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "os/events.h"
#include "util/region.h"
#include "os/vfs.h"
#include "util/rng.h"

namespace provmark::os {

// Simplified open(2) flag bits.
inline constexpr int kO_RDONLY = 0;
inline constexpr int kO_WRONLY = 01;
inline constexpr int kO_RDWR = 02;
inline constexpr int kO_CREAT = 0100;
inline constexpr int kO_TRUNC = 01000;
inline constexpr int kO_CLOEXEC = 02000000;
inline constexpr int kO_ACCMODE = 03;  ///< the access-mode bits

/// One row of a flag vocabulary: a row is set in `flags` when
/// `(flags & mask) == bits`. `short_name` is its program-text spelling
/// ("" = not spellable there).
struct FlagName {
  std::string_view name;
  int bits;
  int mask;
  std::string_view short_name;
};

/// open(2) flags, the access modes first. The one table behind the
/// kernel's flag strings, the audit recorder's raw a1 value and the
/// program-text `flags=` syntax.
inline constexpr FlagName kOpenFlagNames[] = {
    {"O_RDONLY", kO_RDONLY, kO_ACCMODE, "r"},
    {"O_WRONLY", kO_WRONLY, kO_ACCMODE, "w"},
    {"O_RDWR", kO_RDWR, kO_ACCMODE, "rw"},
    {"O_CREAT", kO_CREAT, kO_CREAT, "creat"},
    {"O_TRUNC", kO_TRUNC, kO_TRUNC, "trunc"},
    {"O_CLOEXEC", kO_CLOEXEC, kO_CLOEXEC, ""},
};

/// mmap(2) PROT_* bits.
inline constexpr FlagName kProtNames[] = {
    {"PROT_READ", 1, 1, ""},
    {"PROT_WRITE", 2, 2, ""},
    {"PROT_EXEC", 4, 4, ""},
};

/// Appends to `out` the `column` names of the rows set in `flags`, in
/// table order, joined by `separator`; rows with an empty name are
/// skipped.
template <typename String>
String& append_flag_names(String& out, std::span<const FlagName> table,
                          int flags, std::string_view FlagName::*column,
                          char separator) {
  bool first = true;
  for (const FlagName& flag : table) {
    if ((flags & flag.mask) != flag.bits || (flag.*column).empty()) continue;
    if (!first) out += separator;
    out += flag.*column;
    first = false;
  }
  return out;
}

/// append_flag_names into a new string.
inline std::string flag_names(std::span<const FlagName> table, int flags,
                              std::string_view FlagName::*column,
                              char separator) {
  std::string out;
  return append_flag_names(out, table, flags, column, separator);
}

/// The row whose `column` name is `name`, or nullptr.
const FlagName* find_flag(std::span<const FlagName> table,
                          std::string_view FlagName::*column,
                          std::string_view name);

/// The audit/LSM `time` field: `seconds` with four decimals, the bytes
/// printf("%.4f") writes.
std::string time_field(double seconds);

/// A mode as printf("%o") writes an int (a negative value prints its
/// unsigned bits).
std::string octal_field(int mode);

/// Result of a syscall: return value plus errno on failure.
struct SyscallResult {
  long ret = 0;
  Errno error = Errno::None;

  bool ok() const { return error == Errno::None; }
  static SyscallResult success(long ret) { return {ret, Errno::None}; }
  static SyscallResult fail(Errno e) { return {-1, e}; }
};

/// An open file description shared by duplicated descriptors. Its
/// strings live in the trial's region.
struct OpenFile {
  std::uint64_t ino = 0;
  std::string_view path;  ///< empty for anonymous objects (pipe ends, sockets)
  int flags = 0;
  bool pipe_read_end = false;
  bool pipe_write_end = false;
  bool is_socket = false;
  bool listening = false;    ///< socket has a listen() backlog
  std::string_view sock_addr;  ///< bound/connected address ("ip:port")
};

/// A process. Its strings and fd table live in the trial's region.
struct Process {
  explicit Process(std::pmr::memory_resource* memory) : fds(memory) {}

  Pid pid = 0;
  Pid ppid = 0;
  Credentials creds;
  std::string_view comm;
  std::string_view exe;
  std::string_view cwd = "/home/user";
  std::pmr::map<int, OpenFile> fds;
  int next_fd = 3;
  bool alive = true;
  bool vforked_child = false;  ///< audit records of parent deferred
};

class Kernel {
 public:
  struct Options {
    std::uint64_t seed = 1;
    /// Initial credentials of spawned programs. Benchmarks run as root by
    /// default (matching the paper's Vagrant environment); use-case
    /// examples lower this to an unprivileged uid.
    Credentials initial_creds{0, 0, 0, 0, 0, 0};
    /// Probability that a deferred inode_free LSM event is flushed before
    /// recording stops (CamFlow close instability, §4.1). Kept low so the
    /// flush lottery rarely starves the no-free similarity class that the
    /// smallest-graph selection rule expects to find (§3.4).
    double free_record_probability = 0.05;
    /// Audit rules installed by the recorder beyond the defaults (SPADE
    /// with `simplify` disabled audits setresuid/setresgid explicitly),
    /// or null for none. The set must outlive the kernel.
    const std::set<std::string>* extra_audit_rules = nullptr;
    /// The layers whose events are built. A layer left out still takes
    /// everything its events would have taken — clock draws, sequence
    /// numbers, audit serials — so every built layer is event for event
    /// what it is in a trace of all layers.
    Layers layers = Layers::all();
  };

  Kernel();
  explicit Kernel(Options options);

  Vfs& vfs() { return vfs_; }
  const Vfs& vfs() const { return vfs_; }

  /// The trial's region: the kernel's tables and its trace live here, and
  /// a caller driving the kernel may put its own per-trial scratch here.
  util::Region& region() { return *region_; }

  // -- staging (no events) --------------------------------------------------

  /// Create a file in the staging area before recording starts.
  void stage_file(std::string_view path, int mode = 0644, int uid = 0,
                  int gid = 0);
  void stage_fifo(std::string_view path);
  void stage_symlink(std::string_view target, std::string_view path);
  /// Remove a staged path if present.
  void stage_remove(std::string_view path);

  // -- recording control ----------------------------------------------------

  void start_recording() { recording_ = true; }
  void stop_recording() { recording_ = false; }
  const EventTrace& trace() const { return trace_; }
  /// Hand the recorded trace to the caller, leaving the kernel's empty.
  /// The two share the region until the kernel is destroyed.
  EventTrace take_trace() {
    return std::exchange(trace_, EventTrace(region_));
  }

  // -- process lifecycle ----------------------------------------------------

  /// Fork+execve the benchmark binary from the harness shell, including
  /// the loader boilerplate. Returns the new process's pid.
  Pid launch_program(std::string_view exe_path, std::string_view comm);

  /// Normal termination (implicit exit at the end of main, or exit()).
  void finish_process(Pid pid);

  const Process* process(Pid pid) const;

  // -- syscalls -------------------------------------------------------------

  SyscallResult sys_open(Pid pid, std::string_view path, int flags,
                         int mode = 0644);
  SyscallResult sys_openat(Pid pid, std::string_view path, int flags,
                           int mode = 0644);
  SyscallResult sys_creat(Pid pid, std::string_view path, int mode = 0644);
  SyscallResult sys_close(Pid pid, int fd);
  SyscallResult sys_dup(Pid pid, int fd);
  SyscallResult sys_dup2(Pid pid, int fd, int newfd);
  SyscallResult sys_dup3(Pid pid, int fd, int newfd, int flags);
  SyscallResult sys_read(Pid pid, int fd, std::uint64_t count);
  SyscallResult sys_pread(Pid pid, int fd, std::uint64_t count,
                          std::uint64_t offset);
  SyscallResult sys_write(Pid pid, int fd, std::uint64_t count);
  SyscallResult sys_pwrite(Pid pid, int fd, std::uint64_t count,
                           std::uint64_t offset);
  SyscallResult sys_link(Pid pid, std::string_view old_path,
                         std::string_view new_path);
  SyscallResult sys_linkat(Pid pid, std::string_view old_path,
                           std::string_view new_path);
  SyscallResult sys_symlink(Pid pid, std::string_view target,
                            std::string_view link_path);
  SyscallResult sys_symlinkat(Pid pid, std::string_view target,
                              std::string_view link_path);
  SyscallResult sys_mknod(Pid pid, std::string_view path, int mode);
  SyscallResult sys_mknodat(Pid pid, std::string_view path, int mode);
  SyscallResult sys_rename(Pid pid, std::string_view old_path,
                           std::string_view new_path);
  SyscallResult sys_renameat(Pid pid, std::string_view old_path,
                             std::string_view new_path);
  SyscallResult sys_truncate(Pid pid, std::string_view path,
                             std::uint64_t length);
  SyscallResult sys_ftruncate(Pid pid, int fd, std::uint64_t length);
  SyscallResult sys_unlink(Pid pid, std::string_view path);
  SyscallResult sys_unlinkat(Pid pid, std::string_view path);
  SyscallResult sys_chmod(Pid pid, std::string_view path, int mode);
  SyscallResult sys_fchmod(Pid pid, int fd, int mode);
  SyscallResult sys_fchmodat(Pid pid, std::string_view path, int mode);
  SyscallResult sys_chown(Pid pid, std::string_view path, int uid, int gid);
  SyscallResult sys_fchown(Pid pid, int fd, int uid, int gid);
  SyscallResult sys_fchownat(Pid pid, std::string_view path, int uid,
                             int gid);
  SyscallResult sys_setgid(Pid pid, int gid);
  SyscallResult sys_setregid(Pid pid, int rgid, int egid);
  SyscallResult sys_setresgid(Pid pid, int rgid, int egid, int sgid);
  SyscallResult sys_setuid(Pid pid, int uid);
  SyscallResult sys_setreuid(Pid pid, int ruid, int euid);
  SyscallResult sys_setresuid(Pid pid, int ruid, int euid, int suid);
  /// pipe(2): on success returns the *read* fd; the write fd is read+1
  /// (reported via `pipe_fds` out-param when non-null).
  SyscallResult sys_pipe(Pid pid, std::pair<int, int>* pipe_fds = nullptr);
  SyscallResult sys_pipe2(Pid pid, int flags,
                          std::pair<int, int>* pipe_fds = nullptr);
  SyscallResult sys_tee(Pid pid, int fd_in, int fd_out, std::uint64_t len);
  /// fork/vfork/clone return the child pid (in the parent's view).
  SyscallResult sys_fork(Pid pid);
  SyscallResult sys_vfork(Pid pid);
  SyscallResult sys_clone(Pid pid);
  SyscallResult sys_execve(Pid pid, std::string_view path);
  SyscallResult sys_exit(Pid pid, int code);
  SyscallResult sys_kill(Pid pid, Pid target, int sig);
  /// socket(2): allocates an anonymous socket inode; returns the fd.
  /// `domain` is AF_* (2 = AF_INET), `type` is SOCK_* (1 = SOCK_STREAM,
  /// 2 = SOCK_DGRAM). Observed by libc and LSM (socket_create); the
  /// socket family is outside the default audit rule set.
  SyscallResult sys_socket(Pid pid, int domain, int type);
  SyscallResult sys_bind(Pid pid, int fd, std::string_view addr);
  SyscallResult sys_connect(Pid pid, int fd, std::string_view addr);
  SyscallResult sys_listen(Pid pid, int fd, int backlog);
  /// accept(2): requires a listening socket; returns the connection fd.
  SyscallResult sys_accept(Pid pid, int fd);
  SyscallResult sys_sendto(Pid pid, int fd, std::uint64_t count);
  SyscallResult sys_recvfrom(Pid pid, int fd, std::uint64_t count);
  /// mmap(2) of an fd-backed mapping. `prot` is a PROT_* bit mask
  /// (1 = READ, 2 = WRITE, 4 = EXEC; 0 is treated as PROT_READ).
  /// Audited (the default rules include mmap) and hooked (mmap_file).
  SyscallResult sys_mmap(Pid pid, int fd, std::uint64_t length, int prot);
  /// munmap(2): releases a mapping. Observed by libc only — there is no
  /// munmap audit rule by default and no LSM unmap hook.
  SyscallResult sys_munmap(Pid pid, std::uint64_t length);
  /// clone(CLONE_THREAD|CLONE_VM): spawns a thread of the caller. Audit
  /// logs it as a clone record with the thread flags; LSM sees task_alloc
  /// with a thread marker.
  SyscallResult sys_clone_thread(Pid pid);

 private:
  Pid allocate_pid();
  double now();

  // Event emission. Each call takes the event's place in the global
  // order (and, for audit and LSM, its clock draw) whenever recording is
  // on, and returns the event for the caller to fill in — or nullptr when
  // no event is built: not recording, the layer is off, or (audit) the
  // call is outside the rule set or failed. So callers build arguments,
  // fields and objects only for a layer that is recorded. Names (libc
  // functions, syscalls, hooks, field keys) are string literals and are
  // stored as they are; every other string an event holds is kept in the
  // region first (keep(), num() and the *_text() helpers).
  LibcEvent* emit_libc(Pid pid, std::string_view function, long ret,
                       Errno err);
  /// An audit record, if `syscall` is in the audit rule set and the call
  /// succeeded (SPADE's default rules ignore failures).
  AuditEvent* emit_audit(Pid pid, std::string_view syscall, bool success,
                         long exit_code);
  LsmEvent* emit_lsm(Pid pid, std::string_view hook,
                     bool permission_denied = false);

  /// Loader boilerplate common to launch and execve: ld.so.cache + libc
  /// opens, reads, mmap, closes.
  void loader_activity(Pid pid);

  LsmObject object_for_inode(std::uint64_t ino,
                             std::optional<std::string_view> path) const;
  static std::optional<std::string_view> lsm_path(std::string_view path);

  std::pmr::memory_resource* memory() { return region_->resource(); }
  std::string_view keep(std::string_view s) { return region_->keep(s); }
  /// `n` in decimal, kept in the region.
  template <typename Int>
  std::string_view num(Int n) {
    char buf[24];
    auto [end, ec] = std::to_chars(buf, buf + sizeof buf, n);
    return keep(std::string_view(buf, end - buf));
  }
  /// open(2) flags as the events spell them, kept in the region.
  std::string_view open_flags_text(int flags);
  /// mmap(2) PROT_* bits as the events spell them, kept in the region.
  std::string_view prot_text(int prot);

  SyscallResult do_open(Pid pid, std::string_view call,
                        std::string_view path, int flags, int mode);
  SyscallResult do_dup(Pid pid, std::string_view call, int fd, int newfd);
  SyscallResult do_io(Pid pid, std::string_view call, int fd,
                      std::uint64_t count, bool is_write);
  SyscallResult do_link(Pid pid, std::string_view call,
                        std::string_view old_path,
                        std::string_view new_path);
  SyscallResult do_symlink(Pid pid, std::string_view call,
                           std::string_view target,
                           std::string_view link_path);
  SyscallResult do_mknod(Pid pid, std::string_view call,
                         std::string_view path, int mode);
  SyscallResult do_rename(Pid pid, std::string_view call,
                          std::string_view old_path,
                          std::string_view new_path);
  SyscallResult do_unlink(Pid pid, std::string_view call,
                          std::string_view path);
  SyscallResult do_chmod_path(Pid pid, std::string_view call,
                              std::string_view path, int mode);
  SyscallResult do_chown_path(Pid pid, std::string_view call,
                              std::string_view path, int uid, int gid);
  SyscallResult do_setid(Pid pid, std::string_view call,
                         const std::function<void(Credentials&)>& update,
                         std::initializer_list<int> ids);
  SyscallResult do_pipe(Pid pid, std::string_view call,
                        std::pair<int, int>* pipe_fds);
  SyscallResult do_fork(Pid pid, std::string_view call);
  SyscallResult do_socket_addr(Pid pid, std::string_view call, int fd,
                               std::string_view addr);
  SyscallResult do_socket_io(Pid pid, std::string_view call, int fd,
                             std::uint64_t count, bool is_send);

  /// Resolve a possibly-relative path against the process cwd; the
  /// result is kept in the region.
  std::string_view resolve_path(const Process& p, std::string_view path);

  std::shared_ptr<util::Region> region_;  // first: destroyed after every table
  Options options_;
  util::Rng rng_;
  Vfs vfs_;
  std::pmr::map<Pid, Process> processes_;
  Pid next_pid_;
  Pid shell_pid_;
  bool recording_ = false;
  EventTrace trace_;
  double clock_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_audit_serial_;
  /// Audit records deferred because the emitting parent vforked.
  std::pmr::map<Pid, std::pmr::vector<AuditEvent>> deferred_audit_;
  /// Syscalls covered by the default (SPADE-installed) audit rules.
  static const std::set<std::string_view>& audit_rule_set();
};

}  // namespace provmark::os
