#include "os/kernel.h"

#include <algorithm>
#include <charconv>

#include "util/strings.h"

namespace provmark::os {

namespace {

const char* kind_for_type(FileType type) {
  switch (type) {
    case FileType::Regular: return "file";
    case FileType::Directory: return "directory";
    case FileType::Symlink: return "link";
    case FileType::Fifo: return "fifo";
    case FileType::CharDevice: return "chardev";
    case FileType::Socket: return "socket";
  }
  return "file";
}

}  // namespace

std::string time_field(double seconds) {
  // Fixed notation of any finite double fits: 309 integer digits, sign,
  // point and four decimals.
  char buf[320];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, seconds,
                                 std::chars_format::fixed, 4);
  return std::string(buf, end);
}

std::string octal_field(int mode) {
  char buf[16];
  auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, static_cast<unsigned>(mode), 8);
  return std::string(buf, end);
}

const FlagName* find_flag(std::span<const FlagName> table,
                          std::string_view FlagName::*column,
                          std::string_view name) {
  for (const FlagName& flag : table) {
    if (!name.empty() && flag.*column == name) return &flag;
  }
  return nullptr;
}

const std::set<std::string_view>& Kernel::audit_rule_set() {
  // The syscalls covered by SPADE's default audit rules. Notable absences
  // (driving Table 2 "NR" cells for SPADE): mknod*, chown*, setres*,
  // pipe*, tee, kill.
  static const std::set<std::string_view> kRules = {
      "close",    "creat",     "dup",      "dup2",     "dup3",
      "link",     "linkat",    "symlink",  "symlinkat", "open",
      "openat",   "read",      "pread",    "write",    "pwrite",
      "rename",   "renameat",  "truncate", "ftruncate", "unlink",
      "unlinkat", "clone",     "execve",   "fork",     "vfork",
      "chmod",    "fchmod",    "fchmodat", "setgid",   "setregid",
      "setuid",   "setreuid",  "mmap",     "exit_group"};
  return kRules;
}

Kernel::Kernel() : Kernel(Options{}) {}

Kernel::Kernel(Options options)
    : region_(std::make_shared<util::Region>()),
      options_(std::move(options)),
      rng_(options_.seed),
      vfs_(memory()),
      processes_(memory()),
      next_pid_(0),
      trace_(region_),
      clock_(0),
      deferred_audit_(memory()) {
  next_pid_ = static_cast<Pid>(2000 + rng_.next_below(5000));
  clock_ = 1.6e9 + static_cast<double>(rng_.next_below(1000000));
  next_audit_serial_ = 10000 + rng_.next_below(80000);

  Process shell(memory());
  shell.pid = allocate_pid();
  shell.ppid = 1;
  shell.creds = options_.initial_creds;
  shell.comm = "sh";
  shell.exe = "/usr/bin/sh";
  shell_pid_ = shell.pid;
  processes_.emplace(shell.pid, std::move(shell));
}

Pid Kernel::allocate_pid() { return next_pid_++; }

double Kernel::now() {
  clock_ += 0.0001 * static_cast<double>(1 + rng_.next_below(50));
  return clock_;
}

std::string_view Kernel::resolve_path(const Process& p,
                                      std::string_view path) {
  if (!path.empty() && path.front() == '/') return keep(path);
  return region_->join({p.cwd, "/", path});
}

std::string_view Kernel::open_flags_text(int flags) {
  // Access mode 03 has no name of its own and reads as O_RDWR.
  if ((flags & kO_ACCMODE) == kO_ACCMODE) flags &= ~kO_WRONLY;
  std::pmr::string text(memory());
  return keep(
      append_flag_names(text, kOpenFlagNames, flags, &FlagName::name, '|'));
}

std::string_view Kernel::prot_text(int prot) {
  if (prot == 0) prot = kProtNames[0].bits;  // 0 is treated as PROT_READ
  std::pmr::string text(memory());
  append_flag_names(text, kProtNames, prot, &FlagName::name, '|');
  return text.empty() ? "PROT_NONE" : keep(text);
}

// ---------------------------------------------------------------------------
// staging
// ---------------------------------------------------------------------------

void Kernel::stage_file(std::string_view path, int mode, int uid, int gid) {
  vfs_.unlink(path);
  vfs_.create(path, FileType::Regular, mode, uid, gid);
}

void Kernel::stage_fifo(std::string_view path) {
  vfs_.unlink(path);
  vfs_.create(path, FileType::Fifo, 0644, 0, 0);
}

void Kernel::stage_symlink(std::string_view target,
                           std::string_view path) {
  vfs_.unlink(path);
  vfs_.symlink(target, path, 0, 0);
}

void Kernel::stage_remove(std::string_view path) { vfs_.unlink(path); }

// ---------------------------------------------------------------------------
// event emission
// ---------------------------------------------------------------------------

LibcEvent* Kernel::emit_libc(Pid pid, std::string_view function, long ret,
                             Errno err) {
  if (!recording_) return nullptr;
  const std::uint64_t seq = next_seq_++;
  if (!options_.layers.has(Layer::Libc)) return nullptr;
  LibcEvent& event = trace_.libc.emplace_back(memory());
  event.function = function;
  event.ret = ret;
  event.err = static_cast<int>(err);
  event.pid = pid;
  event.seq = seq;
  return &event;
}

AuditEvent* Kernel::emit_audit(Pid pid, std::string_view syscall,
                               bool success, long exit_code) {
  if (!recording_) return nullptr;
  if (!audit_rule_set().contains(syscall) &&
      (options_.extra_audit_rules == nullptr ||
       !options_.extra_audit_rules->contains(std::string(syscall)))) {
    return nullptr;
  }
  // SPADE's default audit rules filter on success (the Alice use case,
  // §3.1: failed calls are invisible to SPADE out of the box).
  if (!success) return nullptr;
  const double time = now();
  const std::uint64_t serial = next_audit_serial_++;
  const std::uint64_t seq = next_seq_++;
  const bool built = options_.layers.has(Layer::Audit);
  AuditEvent event(memory());
  if (built) {
    const Process& p = processes_.at(pid);
    event.syscall = syscall;
    event.success = success;
    event.exit_code = exit_code;
    event.pid = pid;
    event.ppid = p.ppid;
    event.creds = p.creds;
    event.comm = p.comm;
    event.exe = p.exe;
    event.cwd = p.cwd;
    event.fields.emplace("time", keep(time_field(time)));
    event.serial = serial;
    event.seq = seq;
  }
  // Defer the parent's records while it has a live vforked child (audit
  // reports the parent's records only after the child exits). With the
  // layer off the placeholder only keeps the flush's seq count.
  for (auto& [child_pid, records] : deferred_audit_) {
    auto it = processes_.find(child_pid);
    if (it != processes_.end() && it->second.alive &&
        it->second.ppid == pid) {
      records.push_back(std::move(event));
      return built ? &records.back() : nullptr;
    }
  }
  if (!built) return nullptr;
  return &trace_.audit.emplace_back(std::move(event));
}

LsmEvent* Kernel::emit_lsm(Pid pid, std::string_view hook,
                           bool permission_denied) {
  if (!recording_) return nullptr;
  const double time = now();
  const std::uint64_t seq = next_seq_++;
  if (!options_.layers.has(Layer::Lsm)) return nullptr;
  LsmEvent& event = trace_.lsm.emplace_back(memory());
  event.hook = hook;
  event.pid = pid;
  event.creds = processes_.at(pid).creds;
  event.fields.emplace("time", keep(time_field(time)));
  event.permission_denied = permission_denied;
  event.seq = seq;
  return &event;
}

/// `path` for an LSM object: none for an anonymous object (empty path).
std::optional<std::string_view> Kernel::lsm_path(std::string_view path) {
  if (path.empty()) return std::nullopt;
  return path;
}

LsmObject Kernel::object_for_inode(
    std::uint64_t ino, std::optional<std::string_view> path) const {
  const Inode* inode = vfs_.inode(ino);
  return LsmObject{inode != nullptr ? kind_for_type(inode->type) : "file",
                   ino, path};
}

// ---------------------------------------------------------------------------
// process lifecycle
// ---------------------------------------------------------------------------

Pid Kernel::launch_program(std::string_view exe_path,
                           std::string_view comm) {
  // fork from the harness shell...
  SyscallResult fork_result = sys_fork(shell_pid_);
  Pid child = static_cast<Pid>(fork_result.ret);
  // ...then execve the benchmark binary (records loader boilerplate too).
  sys_execve(child, exe_path);
  Process& p = processes_.at(child);
  p.comm = keep(comm);
  return child;
}

void Kernel::finish_process(Pid pid) {
  Process& p = processes_.at(pid);
  if (!p.alive) return;
  p.alive = false;
  if (LibcEvent* e = emit_libc(pid, "exit", 0, Errno::None)) {
    e->args = {"0"};
  }
  emit_audit(pid, "exit_group", true, 0);
  if (LsmEvent* e = emit_lsm(pid, "task_free")) {
    e->object = LsmObject{"task", static_cast<std::uint64_t>(pid),
                          std::nullopt};
  }
  // Flush any parent audit records deferred by this child's vfork.
  auto it = deferred_audit_.find(pid);
  if (it != deferred_audit_.end()) {
    for (AuditEvent& event : it->second) {
      event.seq = next_seq_++;
      if (options_.layers.has(Layer::Audit)) {
        trace_.audit.push_back(std::move(event));
      }
    }
    deferred_audit_.erase(it);
  }
}

const Process* Kernel::process(Pid pid) const {
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : &it->second;
}

void Kernel::loader_activity(Pid pid) {
  // The dynamic loader: read the linker cache, map libc. This is the
  // "accesses to program files and libraries and memory mapping calls"
  // boilerplate of §3 that makes background subtraction necessary.
  SyscallResult cache_fd = sys_open(pid, "/etc/ld.so.cache", kO_RDONLY);
  if (cache_fd.ok()) {
    sys_read(pid, static_cast<int>(cache_fd.ret), 65536);
    sys_close(pid, static_cast<int>(cache_fd.ret));
  }
  SyscallResult libc_fd = sys_open(pid, "/lib/libc.so.6", kO_RDONLY);
  if (libc_fd.ok()) {
    sys_read(pid, static_cast<int>(libc_fd.ret), 832);
    // mmap of libc shows up in audit (rule set includes mmap).
    VfsResult ino = vfs_.lookup("/lib/libc.so.6");
    if (AuditEvent* e = emit_audit(pid, "mmap", true, 0)) {
      e->paths.push_back({"/lib/libc.so.6", ino.ino, "NORMAL"});
      e->fields.emplace("prot", "PROT_READ|PROT_EXEC");
    }
    if (LsmEvent* e = emit_lsm(pid, "mmap_file")) {
      e->object = object_for_inode(ino.ino, "/lib/libc.so.6");
      e->fields.emplace("prot", "rx");
    }
    sys_close(pid, static_cast<int>(libc_fd.ret));
  }
}

// ---------------------------------------------------------------------------
// file syscalls
// ---------------------------------------------------------------------------

SyscallResult Kernel::do_open(Pid pid, std::string_view call,
                              std::string_view raw_path, int flags,
                              int mode) {
  Process& p = processes_.at(pid);
  std::string_view path = resolve_path(p, raw_path);
  bool created = false;
  VfsResult lookup = vfs_.lookup(path);
  Errno error = Errno::None;
  if (!lookup.ok()) {
    if (flags & kO_CREAT) {
      lookup = vfs_.create(path, FileType::Regular, mode, p.creds.euid,
                           p.creds.egid);
      created = lookup.ok();
      error = lookup.error;
    } else {
      error = lookup.error;
    }
  } else {
    const Inode& inode = *vfs_.inode(lookup.ino);
    bool want_write = (flags & 03) != kO_RDONLY;
    bool want_read = (flags & 03) != kO_WRONLY;
    if (want_write && !Vfs::may_write(inode, p.creds.euid, p.creds.egid)) {
      error = Errno::kACCES;
    } else if (want_read &&
               !Vfs::may_read(inode, p.creds.euid, p.creds.egid)) {
      error = Errno::kACCES;
    } else if (inode.type == FileType::Directory && want_write) {
      error = Errno::kISDIR;
    }
  }

  SyscallResult result;
  if (error == Errno::None) {
    if ((flags & kO_TRUNC) != 0) vfs_.truncate(path, 0);
    int fd = p.next_fd++;
    OpenFile& file = p.fds[fd] = OpenFile{};
    file.ino = lookup.ino;
    file.path = path;
    file.flags = flags;
    result = SyscallResult::success(fd);
  } else {
    result = SyscallResult::fail(error);
  }

  if (LibcEvent* e = emit_libc(pid, call, result.ret, result.error)) {
    e->args = {keep(raw_path), open_flags_text(flags)};
  }
  if (AuditEvent* e = emit_audit(pid, call, result.ok(), result.ret)) {
    e->paths.push_back({path, lookup.ino, created ? "CREATE" : "NORMAL"});
    e->fields.emplace("flags", open_flags_text(flags));
  }
  if (created) {
    if (LsmEvent* e = emit_lsm(pid, "inode_create")) {
      e->object = object_for_inode(lookup.ino, path);
    }
  }
  if (result.ok() || error == Errno::kACCES) {
    if (LsmEvent* e = emit_lsm(pid, "file_open",
                               /*permission_denied=*/!result.ok())) {
      e->object = result.ok() || lookup.ino != 0
                      ? object_for_inode(lookup.ino, path)
                      : LsmObject{"file", 0, path};
      e->fields.emplace("flags", open_flags_text(flags));
    }
  }
  return result;
}

SyscallResult Kernel::sys_open(Pid pid, std::string_view path, int flags,
                               int mode) {
  return do_open(pid, "open", path, flags, mode);
}

SyscallResult Kernel::sys_openat(Pid pid, std::string_view path, int flags,
                                 int mode) {
  return do_open(pid, "openat", path, flags, mode);
}

SyscallResult Kernel::sys_creat(Pid pid, std::string_view path, int mode) {
  return do_open(pid, "creat", path, kO_CREAT | kO_WRONLY | kO_TRUNC, mode);
}

SyscallResult Kernel::sys_close(Pid pid, int fd) {
  Process& p = processes_.at(pid);
  auto it = p.fds.find(fd);
  SyscallResult result;
  std::uint64_t ino = 0;
  std::string_view path;
  if (it == p.fds.end()) {
    result = SyscallResult::fail(Errno::kBADF);
  } else {
    ino = it->second.ino;
    path = it->second.path;
    p.fds.erase(it);
    result = SyscallResult::success(0);
  }
  if (LibcEvent* e = emit_libc(pid, "close", result.ret, result.error)) {
    e->args = {num(fd)};
  }
  if (AuditEvent* e = emit_audit(pid, "close", result.ok(), result.ret)) {
    e->fields.emplace("a0", num(fd));
  }
  if (result.ok()) {
    // The kernel frees the inode structure lazily (RCU); whether the free
    // record is flushed before recording stops is timing-dependent — the
    // source of CamFlow's unreliable `close` benchmark (note LP).
    if (rng_.chance(options_.free_record_probability)) {
      if (LsmEvent* e = emit_lsm(pid, "inode_free")) {
        e->object = object_for_inode(ino, lsm_path(path));
      }
    }
  }
  return result;
}

SyscallResult Kernel::do_dup(Pid pid, std::string_view call, int fd,
                             int newfd) {
  Process& p = processes_.at(pid);
  auto it = p.fds.find(fd);
  SyscallResult result;
  if (it == p.fds.end()) {
    result = SyscallResult::fail(Errno::kBADF);
  } else {
    int assigned = newfd >= 0 ? newfd : p.next_fd++;
    p.fds[assigned] = it->second;
    result = SyscallResult::success(assigned);
  }
  if (LibcEvent* e = emit_libc(pid, call, result.ret, result.error)) {
    e->args = {num(fd)};
    if (newfd >= 0) e->args.push_back(num(newfd));
  }
  if (AuditEvent* e = emit_audit(pid, call, result.ok(), result.ret)) {
    e->fields.emplace("a0", num(fd));
  }
  // No LSM hook fires for dup: duplicating a descriptor touches only
  // process-local state (Table 2: CamFlow dup rows are empty/NR).
  return result;
}

SyscallResult Kernel::sys_dup(Pid pid, int fd) {
  return do_dup(pid, "dup", fd, -1);
}

SyscallResult Kernel::sys_dup2(Pid pid, int fd, int newfd) {
  return do_dup(pid, "dup2", fd, newfd);
}

SyscallResult Kernel::sys_dup3(Pid pid, int fd, int newfd, int flags) {
  (void)flags;
  return do_dup(pid, "dup3", fd, newfd);
}

SyscallResult Kernel::do_io(Pid pid, std::string_view call, int fd,
                            std::uint64_t count, bool is_write) {
  Process& p = processes_.at(pid);
  auto it = p.fds.find(fd);
  SyscallResult result;
  std::uint64_t ino = 0;
  std::string_view path;
  if (it == p.fds.end()) {
    result = SyscallResult::fail(Errno::kBADF);
  } else {
    ino = it->second.ino;
    path = it->second.path;
    if (is_write) {
      Inode* inode = vfs_.inode(ino);
      if (inode != nullptr) {
        inode->size = std::max(inode->size, count);
      }
    }
    result = SyscallResult::success(static_cast<long>(count));
  }
  if (LibcEvent* e = emit_libc(pid, call, result.ret, result.error)) {
    e->args = {num(fd), num(count)};
  }
  if (AuditEvent* e = emit_audit(pid, call, result.ok(), result.ret)) {
    if (!path.empty()) e->paths.push_back({path, ino, "NORMAL"});
    e->fields.emplace("a0", num(fd));
  }
  if (result.ok()) {
    if (LsmEvent* e = emit_lsm(pid, "file_permission")) {
      e->object = object_for_inode(ino, lsm_path(path));
      e->fields.emplace("mask", is_write ? "MAY_WRITE" : "MAY_READ");
    }
  }
  return result;
}

SyscallResult Kernel::sys_read(Pid pid, int fd, std::uint64_t count) {
  return do_io(pid, "read", fd, count, false);
}

SyscallResult Kernel::sys_pread(Pid pid, int fd, std::uint64_t count,
                                std::uint64_t offset) {
  (void)offset;
  return do_io(pid, "pread", fd, count, false);
}

SyscallResult Kernel::sys_write(Pid pid, int fd, std::uint64_t count) {
  return do_io(pid, "write", fd, count, true);
}

SyscallResult Kernel::sys_pwrite(Pid pid, int fd, std::uint64_t count,
                                 std::uint64_t offset) {
  (void)offset;
  return do_io(pid, "pwrite", fd, count, true);
}

SyscallResult Kernel::do_link(Pid pid, std::string_view call,
                              std::string_view old_raw,
                              std::string_view new_raw) {
  Process& p = processes_.at(pid);
  std::string_view old_path = resolve_path(p, old_raw);
  std::string_view new_path = resolve_path(p, new_raw);
  VfsResult result = vfs_.link(old_path, new_path);
  SyscallResult sys = result.ok() ? SyscallResult::success(0)
                                  : SyscallResult::fail(result.error);
  if (LibcEvent* e = emit_libc(pid, call, sys.ret, sys.error)) {
    e->args = {keep(old_raw), keep(new_raw)};
  }
  if (AuditEvent* e = emit_audit(pid, call, sys.ok(), sys.ret)) {
    e->paths.push_back({old_path, result.ino, "NORMAL"});
    e->paths.push_back({new_path, result.ino, "CREATE"});
  }
  if (sys.ok()) {
    if (LsmEvent* e = emit_lsm(pid, "inode_link")) {
      e->object = object_for_inode(result.ino, old_path);
      e->object2 = LsmObject{"file", result.ino, new_path};
    }
  }
  return sys;
}

SyscallResult Kernel::sys_link(Pid pid, std::string_view old_path,
                               std::string_view new_path) {
  return do_link(pid, "link", old_path, new_path);
}

SyscallResult Kernel::sys_linkat(Pid pid, std::string_view old_path,
                                 std::string_view new_path) {
  return do_link(pid, "linkat", old_path, new_path);
}

SyscallResult Kernel::do_symlink(Pid pid, std::string_view call,
                                 std::string_view target,
                                 std::string_view link_raw) {
  Process& p = processes_.at(pid);
  std::string_view link_path = resolve_path(p, link_raw);
  VfsResult result = vfs_.symlink(target, link_path, p.creds.euid,
                                  p.creds.egid);
  SyscallResult sys = result.ok() ? SyscallResult::success(0)
                                  : SyscallResult::fail(result.error);
  if (LibcEvent* e = emit_libc(pid, call, sys.ret, sys.error)) {
    e->args = {keep(target), keep(link_raw)};
  }
  if (AuditEvent* e = emit_audit(pid, call, sys.ok(), sys.ret)) {
    e->paths.push_back({link_path, result.ino, "CREATE"});
    e->fields.emplace("target", keep(target));
  }
  if (sys.ok()) {
    if (LsmEvent* e = emit_lsm(pid, "inode_symlink")) {
      e->object = object_for_inode(result.ino, link_path);
      e->fields.emplace("target", keep(target));
    }
  }
  return sys;
}

SyscallResult Kernel::sys_symlink(Pid pid, std::string_view target,
                                  std::string_view link_path) {
  return do_symlink(pid, "symlink", target, link_path);
}

SyscallResult Kernel::sys_symlinkat(Pid pid, std::string_view target,
                                    std::string_view link_path) {
  return do_symlink(pid, "symlinkat", target, link_path);
}

SyscallResult Kernel::do_mknod(Pid pid, std::string_view call,
                               std::string_view raw_path, int mode) {
  Process& p = processes_.at(pid);
  std::string_view path = resolve_path(p, raw_path);
  VfsResult result =
      vfs_.create(path, FileType::Fifo, mode, p.creds.euid, p.creds.egid);
  SyscallResult sys = result.ok() ? SyscallResult::success(0)
                                  : SyscallResult::fail(result.error);
  if (LibcEvent* e = emit_libc(pid, call, sys.ret, sys.error)) {
    e->args = {keep(raw_path), keep(octal_field(mode))};
  }
  // mknod / mknodat are not in the default audit rule set (SPADE: NR).
  emit_audit(pid, call, sys.ok(), sys.ret);
  if (sys.ok()) {
    if (LsmEvent* e = emit_lsm(pid, "inode_mknod")) {
      e->object = object_for_inode(result.ino, path);
      e->fields.emplace("mode", keep(octal_field(mode)));
    }
  }
  return sys;
}

SyscallResult Kernel::sys_mknod(Pid pid, std::string_view path, int mode) {
  return do_mknod(pid, "mknod", path, mode);
}

SyscallResult Kernel::sys_mknodat(Pid pid, std::string_view path,
                                  int mode) {
  return do_mknod(pid, "mknodat", path, mode);
}

SyscallResult Kernel::do_rename(Pid pid, std::string_view call,
                                std::string_view old_raw,
                                std::string_view new_raw) {
  Process& p = processes_.at(pid);
  std::string_view old_path = resolve_path(p, old_raw);
  std::string_view new_path = resolve_path(p, new_raw);
  // Permission: writable parent directories; a root-owned existing target
  // in a root-owned directory fails for unprivileged users (the Alice
  // scenario: rename onto /etc/passwd).
  Errno error = Errno::None;
  VfsResult old_lookup = vfs_.lookup(old_path, false);
  if (!old_lookup.ok()) {
    error = old_lookup.error;
  } else {
    for (std::string_view dir :
         {Vfs::parent_of(old_path), Vfs::parent_of(new_path)}) {
      VfsResult parent = vfs_.lookup(dir);
      if (!parent.ok()) {
        error = Errno::kNOENT;
        break;
      }
      if (!Vfs::may_write(*vfs_.inode(parent.ino), p.creds.euid,
                          p.creds.egid)) {
        error = Errno::kACCES;
        break;
      }
    }
  }
  std::uint64_t ino = old_lookup.ino;
  SyscallResult sys;
  if (error == Errno::None) {
    VfsResult result = vfs_.rename(old_path, new_path);
    sys = result.ok() ? SyscallResult::success(0)
                      : SyscallResult::fail(result.error);
  } else {
    sys = SyscallResult::fail(error);
  }
  if (LibcEvent* e = emit_libc(pid, call, sys.ret, sys.error)) {
    e->args = {keep(old_raw), keep(new_raw)};
  }
  if (AuditEvent* e = emit_audit(pid, call, sys.ok(), sys.ret)) {
    e->paths.push_back({old_path, ino, "DELETE"});
    e->paths.push_back({new_path, ino, "CREATE"});
  }
  if (sys.ok() || error == Errno::kACCES) {
    if (LsmEvent* e = emit_lsm(pid, "inode_rename",
                               /*permission_denied=*/!sys.ok())) {
      e->object = object_for_inode(ino, old_path);
      e->object2 = LsmObject{"file", ino, new_path};
    }
  }
  return sys;
}

SyscallResult Kernel::sys_rename(Pid pid, std::string_view old_path,
                                 std::string_view new_path) {
  return do_rename(pid, "rename", old_path, new_path);
}

SyscallResult Kernel::sys_renameat(Pid pid, std::string_view old_path,
                                   std::string_view new_path) {
  return do_rename(pid, "renameat", old_path, new_path);
}

SyscallResult Kernel::sys_truncate(Pid pid, std::string_view raw_path,
                                   std::uint64_t length) {
  Process& p = processes_.at(pid);
  std::string_view path = resolve_path(p, raw_path);
  VfsResult lookup = vfs_.lookup(path);
  Errno error = lookup.error;
  if (lookup.ok() &&
      !Vfs::may_write(*vfs_.inode(lookup.ino), p.creds.euid, p.creds.egid)) {
    error = Errno::kACCES;
  }
  SyscallResult sys;
  if (error == Errno::None) {
    vfs_.truncate(path, length);
    sys = SyscallResult::success(0);
  } else {
    sys = SyscallResult::fail(error);
  }
  if (LibcEvent* e = emit_libc(pid, "truncate", sys.ret, sys.error)) {
    e->args = {keep(raw_path), num(length)};
  }
  if (AuditEvent* e = emit_audit(pid, "truncate", sys.ok(), sys.ret)) {
    e->paths.push_back({path, lookup.ino, "NORMAL"});
  }
  if (sys.ok()) {
    if (LsmEvent* e = emit_lsm(pid, "inode_setattr")) {
      e->object = object_for_inode(lookup.ino, path);
      e->fields.emplace("attr", "size");
    }
  }
  return sys;
}

SyscallResult Kernel::sys_ftruncate(Pid pid, int fd, std::uint64_t length) {
  Process& p = processes_.at(pid);
  auto it = p.fds.find(fd);
  SyscallResult sys;
  std::uint64_t ino = 0;
  std::string_view path;
  if (it == p.fds.end()) {
    sys = SyscallResult::fail(Errno::kBADF);
  } else {
    ino = it->second.ino;
    path = it->second.path;
    Inode* inode = vfs_.inode(ino);
    if (inode != nullptr) inode->size = length;
    sys = SyscallResult::success(0);
  }
  if (LibcEvent* e = emit_libc(pid, "ftruncate", sys.ret, sys.error)) {
    e->args = {num(fd), num(length)};
  }
  if (AuditEvent* e = emit_audit(pid, "ftruncate", sys.ok(), sys.ret)) {
    if (!path.empty()) e->paths.push_back({path, ino, "NORMAL"});
  }
  if (sys.ok()) {
    if (LsmEvent* e = emit_lsm(pid, "inode_setattr")) {
      e->object = object_for_inode(ino, lsm_path(path));
      e->fields.emplace("attr", "size");
    }
  }
  return sys;
}

SyscallResult Kernel::do_unlink(Pid pid, std::string_view call,
                                std::string_view raw_path) {
  Process& p = processes_.at(pid);
  std::string_view path = resolve_path(p, raw_path);
  VfsResult lookup = vfs_.lookup(path, false);
  Errno error = lookup.error;
  if (lookup.ok()) {
    VfsResult parent = vfs_.lookup(Vfs::parent_of(path));
    if (parent.ok() && !Vfs::may_write(*vfs_.inode(parent.ino), p.creds.euid,
                                       p.creds.egid)) {
      error = Errno::kACCES;
    }
  }
  std::uint64_t ino = lookup.ino;
  SyscallResult sys;
  if (error == Errno::None) {
    VfsResult result = vfs_.unlink(path);
    sys = result.ok() ? SyscallResult::success(0)
                      : SyscallResult::fail(result.error);
  } else {
    sys = SyscallResult::fail(error);
  }
  if (LibcEvent* e = emit_libc(pid, call, sys.ret, sys.error)) {
    e->args = {keep(raw_path)};
  }
  if (AuditEvent* e = emit_audit(pid, call, sys.ok(), sys.ret)) {
    e->paths.push_back({path, ino, "DELETE"});
  }
  if (sys.ok()) {
    if (LsmEvent* e = emit_lsm(pid, "inode_unlink")) {
      e->object = object_for_inode(ino, path);
    }
  }
  return sys;
}

SyscallResult Kernel::sys_unlink(Pid pid, std::string_view path) {
  return do_unlink(pid, "unlink", path);
}

SyscallResult Kernel::sys_unlinkat(Pid pid, std::string_view path) {
  return do_unlink(pid, "unlinkat", path);
}

// ---------------------------------------------------------------------------
// permissions
// ---------------------------------------------------------------------------

SyscallResult Kernel::do_chmod_path(Pid pid, std::string_view call,
                                    std::string_view raw_path, int mode) {
  Process& p = processes_.at(pid);
  std::string_view path = resolve_path(p, raw_path);
  VfsResult lookup = vfs_.lookup(path);
  Errno error = lookup.error;
  if (lookup.ok()) {
    Inode& inode = *vfs_.inode(lookup.ino);
    if (p.creds.euid != 0 && inode.owner_uid != p.creds.euid) {
      error = Errno::kPERM;
    } else {
      inode.mode = mode;
    }
  }
  SyscallResult sys = error == Errno::None ? SyscallResult::success(0)
                                           : SyscallResult::fail(error);
  if (LibcEvent* e = emit_libc(pid, call, sys.ret, sys.error)) {
    e->args = {keep(raw_path), keep(octal_field(mode))};
  }
  if (AuditEvent* e = emit_audit(pid, call, sys.ok(), sys.ret)) {
    e->paths.push_back({path, lookup.ino, "NORMAL"});
    e->fields.emplace("mode", keep(octal_field(mode)));
  }
  if (sys.ok()) {
    if (LsmEvent* e = emit_lsm(pid, "inode_setattr")) {
      e->object = object_for_inode(lookup.ino, path);
      e->fields.emplace("attr", "mode");
    }
  }
  return sys;
}

SyscallResult Kernel::sys_chmod(Pid pid, std::string_view path, int mode) {
  return do_chmod_path(pid, "chmod", path, mode);
}

SyscallResult Kernel::sys_fchmod(Pid pid, int fd, int mode) {
  Process& p = processes_.at(pid);
  auto it = p.fds.find(fd);
  if (it == p.fds.end()) {
    SyscallResult sys = SyscallResult::fail(Errno::kBADF);
    if (LibcEvent* e = emit_libc(pid, "fchmod", sys.ret, sys.error)) {
      e->args = {num(fd)};
    }
    return sys;
  }
  std::uint64_t ino = it->second.ino;
  std::string_view path = it->second.path;
  Inode* inode = vfs_.inode(ino);
  if (inode != nullptr) inode->mode = mode;
  SyscallResult sys = SyscallResult::success(0);
  if (LibcEvent* e = emit_libc(pid, "fchmod", sys.ret, sys.error)) {
    e->args = {num(fd), keep(octal_field(mode))};
  }
  if (AuditEvent* e = emit_audit(pid, "fchmod", true, 0)) {
    if (!path.empty()) e->paths.push_back({path, ino, "NORMAL"});
    e->fields.emplace("mode", keep(octal_field(mode)));
  }
  if (LsmEvent* e = emit_lsm(pid, "inode_setattr")) {
    e->object = object_for_inode(ino, lsm_path(path));
    e->fields.emplace("attr", "mode");
  }
  return sys;
}

SyscallResult Kernel::sys_fchmodat(Pid pid, std::string_view path,
                                   int mode) {
  return do_chmod_path(pid, "fchmodat", path, mode);
}

SyscallResult Kernel::do_chown_path(Pid pid, std::string_view call,
                                    std::string_view raw_path, int uid,
                                    int gid) {
  Process& p = processes_.at(pid);
  std::string_view path = resolve_path(p, raw_path);
  VfsResult lookup = vfs_.lookup(path);
  Errno error = lookup.error;
  if (lookup.ok()) {
    if (p.creds.euid != 0) {
      error = Errno::kPERM;
    } else {
      Inode& inode = *vfs_.inode(lookup.ino);
      inode.owner_uid = uid;
      inode.owner_gid = gid;
    }
  }
  SyscallResult sys = error == Errno::None ? SyscallResult::success(0)
                                           : SyscallResult::fail(error);
  if (LibcEvent* e = emit_libc(pid, call, sys.ret, sys.error)) {
    e->args = {keep(raw_path), num(uid), num(gid)};
  }
  // chown family is absent from the default audit rules (SPADE: NR).
  emit_audit(pid, call, sys.ok(), sys.ret);
  if (sys.ok()) {
    if (LsmEvent* e = emit_lsm(pid, "inode_setattr")) {
      e->object = object_for_inode(lookup.ino, path);
      e->fields.emplace("attr", "owner");
    }
  }
  return sys;
}

SyscallResult Kernel::sys_chown(Pid pid, std::string_view path, int uid,
                                int gid) {
  return do_chown_path(pid, "chown", path, uid, gid);
}

SyscallResult Kernel::sys_fchown(Pid pid, int fd, int uid, int gid) {
  Process& p = processes_.at(pid);
  auto it = p.fds.find(fd);
  SyscallResult sys;
  std::uint64_t ino = 0;
  std::string_view path;
  if (it == p.fds.end()) {
    sys = SyscallResult::fail(Errno::kBADF);
  } else if (p.creds.euid != 0) {
    sys = SyscallResult::fail(Errno::kPERM);
  } else {
    ino = it->second.ino;
    path = it->second.path;
    Inode* inode = vfs_.inode(ino);
    if (inode != nullptr) {
      inode->owner_uid = uid;
      inode->owner_gid = gid;
    }
    sys = SyscallResult::success(0);
  }
  if (LibcEvent* e = emit_libc(pid, "fchown", sys.ret, sys.error)) {
    e->args = {num(fd), num(uid), num(gid)};
  }
  if (sys.ok()) {
    if (LsmEvent* e = emit_lsm(pid, "inode_setattr")) {
      e->object = object_for_inode(ino, lsm_path(path));
      e->fields.emplace("attr", "owner");
    }
  }
  return sys;
}

SyscallResult Kernel::sys_fchownat(Pid pid, std::string_view path, int uid,
                                   int gid) {
  return do_chown_path(pid, "fchownat", path, uid, gid);
}

SyscallResult Kernel::do_setid(
    Pid pid, std::string_view call,
    const std::function<void(Credentials&)>& update,
    std::initializer_list<int> ids) {
  Process& p = processes_.at(pid);
  SyscallResult sys;
  if (p.creds.euid != 0) {
    // Unprivileged processes may only switch among their existing ids; the
    // benchmarks run privileged, so model the simple case.
    sys = SyscallResult::fail(Errno::kPERM);
  } else {
    update(p.creds);
    sys = SyscallResult::success(0);
  }
  if (LibcEvent* e = emit_libc(pid, call, sys.ret, sys.error)) {
    for (int id : ids) e->args.push_back(num(id));
  }
  if (AuditEvent* e = emit_audit(pid, call, sys.ok(), sys.ret)) {
    static constexpr std::string_view kArgKeys[] = {"a0", "a1", "a2"};
    const std::string_view* key = kArgKeys;
    for (int id : ids) e->fields.emplace(*key++, num(id));
  }
  if (sys.ok()) {
    // LSM sees every credential change through cred_prepare / task_fix
    // hooks, whether or not the values actually changed (CamFlow records
    // all of Table 2 group 3).
    if (LsmEvent* e = emit_lsm(pid, "cred_prepare")) {
      e->object =
          LsmObject{"task", static_cast<std::uint64_t>(pid), std::nullopt};
      e->fields.emplace("call", call);
    }
  }
  return sys;
}

SyscallResult Kernel::sys_setgid(Pid pid, int gid) {
  return do_setid(
      pid, "setgid",
      [gid](Credentials& c) {
        c.gid = gid;
        c.egid = gid;
        c.sgid = gid;
      },
      {gid});
}

SyscallResult Kernel::sys_setregid(Pid pid, int rgid, int egid) {
  return do_setid(
      pid, "setregid",
      [rgid, egid](Credentials& c) {
        if (rgid >= 0) c.gid = rgid;
        if (egid >= 0) c.egid = egid;
      },
      {rgid, egid});
}

SyscallResult Kernel::sys_setresgid(Pid pid, int rgid, int egid, int sgid) {
  return do_setid(
      pid, "setresgid",
      [rgid, egid, sgid](Credentials& c) {
        if (rgid >= 0) c.gid = rgid;
        if (egid >= 0) c.egid = egid;
        if (sgid >= 0) c.sgid = sgid;
      },
      {rgid, egid, sgid});
}

SyscallResult Kernel::sys_setuid(Pid pid, int uid) {
  return do_setid(
      pid, "setuid",
      [uid](Credentials& c) {
        c.uid = uid;
        c.euid = uid;
        c.suid = uid;
      },
      {uid});
}

SyscallResult Kernel::sys_setreuid(Pid pid, int ruid, int euid) {
  return do_setid(
      pid, "setreuid",
      [ruid, euid](Credentials& c) {
        if (ruid >= 0) c.uid = ruid;
        if (euid >= 0) c.euid = euid;
      },
      {ruid, euid});
}

SyscallResult Kernel::sys_setresuid(Pid pid, int ruid, int euid, int suid) {
  return do_setid(
      pid, "setresuid",
      [ruid, euid, suid](Credentials& c) {
        if (ruid >= 0) c.uid = ruid;
        if (euid >= 0) c.euid = euid;
        if (suid >= 0) c.suid = suid;
      },
      {ruid, euid, suid});
}

// ---------------------------------------------------------------------------
// pipes
// ---------------------------------------------------------------------------

SyscallResult Kernel::do_pipe(Pid pid, std::string_view call,
                              std::pair<int, int>* pipe_fds) {
  Process& p = processes_.at(pid);
  std::uint64_t ino = vfs_.allocate_anonymous(FileType::Fifo);
  int read_fd = p.next_fd++;
  int write_fd = p.next_fd++;
  OpenFile& read_end = p.fds[read_fd] = OpenFile{};
  read_end.ino = ino;
  read_end.flags = kO_RDONLY;
  read_end.pipe_read_end = true;
  OpenFile& write_end = p.fds[write_fd] = OpenFile{};
  write_end.ino = ino;
  write_end.flags = kO_WRONLY;
  write_end.pipe_write_end = true;
  if (pipe_fds != nullptr) *pipe_fds = {read_fd, write_fd};
  SyscallResult sys = SyscallResult::success(read_fd);
  if (LibcEvent* e = emit_libc(pid, call, 0, Errno::None)) {
    e->args = {num(read_fd), num(write_fd)};
  }
  // pipe/pipe2 are outside the default audit rules and CamFlow 0.4.5 does
  // not serialize pipe allocation (Table 2 group 4).
  emit_audit(pid, call, true, 0);
  return sys;
}

SyscallResult Kernel::sys_pipe(Pid pid, std::pair<int, int>* pipe_fds) {
  return do_pipe(pid, "pipe", pipe_fds);
}

SyscallResult Kernel::sys_pipe2(Pid pid, int flags,
                                std::pair<int, int>* pipe_fds) {
  (void)flags;
  return do_pipe(pid, "pipe2", pipe_fds);
}

SyscallResult Kernel::sys_tee(Pid pid, int fd_in, int fd_out,
                              std::uint64_t len) {
  Process& p = processes_.at(pid);
  auto in_it = p.fds.find(fd_in);
  auto out_it = p.fds.find(fd_out);
  SyscallResult sys;
  if (in_it == p.fds.end() || out_it == p.fds.end()) {
    sys = SyscallResult::fail(Errno::kBADF);
  } else if (!in_it->second.pipe_read_end || !out_it->second.pipe_write_end) {
    sys = SyscallResult::fail(Errno::kINVAL);
  } else {
    sys = SyscallResult::success(static_cast<long>(len));
  }
  if (LibcEvent* e = emit_libc(pid, "tee", sys.ret, sys.error)) {
    e->args = {num(fd_in), num(fd_out),
               num(len)};
  }
  // Not audited (SPADE: NR); OPUS does not wrap tee. But LSM sees the
  // pipe-to-pipe transfer as read+write permission checks (CamFlow: ok).
  if (sys.ok()) {
    if (LsmEvent* e = emit_lsm(pid, "file_permission")) {
      e->object = object_for_inode(in_it->second.ino, std::nullopt);
      e->fields.emplace("mask", "MAY_READ");
    }
    if (LsmEvent* e = emit_lsm(pid, "file_permission")) {
      e->object = object_for_inode(out_it->second.ino, std::nullopt);
      e->fields.emplace("mask", "MAY_WRITE");
    }
  }
  return sys;
}

// ---------------------------------------------------------------------------
// processes
// ---------------------------------------------------------------------------

SyscallResult Kernel::do_fork(Pid pid, std::string_view call) {
  Process& parent = processes_.at(pid);
  Process child(memory());
  child.pid = allocate_pid();
  child.ppid = pid;
  child.creds = parent.creds;
  child.comm = parent.comm;
  child.exe = parent.exe;
  child.cwd = parent.cwd;
  child.fds = parent.fds;
  child.next_fd = parent.next_fd;
  child.vforked_child = (call == "vfork");
  Pid child_pid = child.pid;
  processes_.emplace(child_pid, std::move(child));

  emit_libc(pid, call, child_pid, Errno::None);
  if (LsmEvent* e = emit_lsm(pid, "task_alloc")) {
    e->object = LsmObject{"task", static_cast<std::uint64_t>(child_pid),
                          std::nullopt};
    e->fields.emplace("call", call);
  }
  if (call == "vfork") {
    // Audit reports syscalls at exit; the vforked parent is suspended
    // until the child exits, so its vfork record is deferred and will be
    // flushed by finish_process(child) *after* the child's own records —
    // the cause of SPADE's disconnected vfork child (note DV). The clock
    // and the serial advance even when nothing is recorded.
    const double time = now();
    const std::uint64_t serial = next_audit_serial_++;
    AuditEvent event(memory());
    if (options_.layers.has(Layer::Audit)) {
      const Process& p = processes_.at(pid);
      event.syscall = call;
      event.success = true;
      event.exit_code = child_pid;
      event.pid = pid;
      event.ppid = p.ppid;
      event.creds = p.creds;
      event.comm = p.comm;
      event.exe = p.exe;
      event.cwd = p.cwd;
      event.fields.emplace("time", keep(time_field(time)));
      event.serial = serial;
    }
    if (recording_) deferred_audit_[child_pid].push_back(std::move(event));
  } else if (AuditEvent* e = emit_audit(pid, call, true, child_pid)) {
    e->fields.emplace("child", num(child_pid));
  }
  return SyscallResult::success(child_pid);
}

SyscallResult Kernel::sys_fork(Pid pid) { return do_fork(pid, "fork"); }
SyscallResult Kernel::sys_vfork(Pid pid) { return do_fork(pid, "vfork"); }
SyscallResult Kernel::sys_clone(Pid pid) { return do_fork(pid, "clone"); }

SyscallResult Kernel::sys_execve(Pid pid, std::string_view raw_path) {
  Process& p = processes_.at(pid);
  const std::string_view path = keep(raw_path);
  VfsResult lookup = vfs_.lookup(path);
  SyscallResult sys;
  if (!lookup.ok()) {
    sys = SyscallResult::fail(lookup.error);
    if (LibcEvent* e = emit_libc(pid, "execve", sys.ret, sys.error)) {
      e->args = {path};
    }
    return sys;
  }
  p.exe = path;
  std::size_t slash = path.find_last_of('/');
  p.comm = slash == std::string_view::npos ? path : path.substr(slash + 1);
  sys = SyscallResult::success(0);
  if (LibcEvent* e = emit_libc(pid, "execve", 0, Errno::None)) {
    e->args = {path};
  }
  if (AuditEvent* e = emit_audit(pid, "execve", true, 0)) {
    e->paths.push_back({path, lookup.ino, "NORMAL"});
    e->fields.emplace("argc", "1");
  }
  if (LsmEvent* e = emit_lsm(pid, "bprm_check")) {
    e->object = object_for_inode(lookup.ino, path);
  }
  if (LsmEvent* e = emit_lsm(pid, "file_open")) {
    e->object = object_for_inode(lookup.ino, path);
    e->fields.emplace("flags", "O_RDONLY");
  }
  loader_activity(pid);
  return sys;
}

SyscallResult Kernel::sys_exit(Pid pid, int code) {
  (void)code;
  finish_process(pid);
  return SyscallResult::success(0);
}

SyscallResult Kernel::sys_kill(Pid pid, Pid target, int sig) {
  auto it = processes_.find(target);
  SyscallResult sys;
  if (it == processes_.end() || !it->second.alive) {
    sys = SyscallResult::fail(Errno::kSRCH);
  } else {
    if (sig == 9 || sig == 15) {
      // Abnormal termination: the process never reaches exit_group, so no
      // termination audit record is emitted for it (part of why ProvMark
      // cannot benchmark kill; note LP).
      Process& victim = it->second;
      victim.alive = false;
      if (LsmEvent* e = emit_lsm(pid, "task_kill")) {
        e->object = LsmObject{"task", static_cast<std::uint64_t>(target),
                              std::nullopt};
        e->fields.emplace("sig", num(sig));
      }
    }
    sys = SyscallResult::success(0);
  }
  // kill is not in the audit rule set and CamFlow 0.4.5 does not
  // serialize task_kill; OPUS's PVM has no signal representation.
  if (LibcEvent* e = emit_libc(pid, "kill", sys.ret, sys.error)) {
    e->args = {num(target), num(sig)};
  }
  return sys;
}

// ---------------------------------------------------------------------------
// sockets
// ---------------------------------------------------------------------------

namespace {

const char* socket_domain_name(int domain) {
  switch (domain) {
    case 1: return "AF_UNIX";
    case 2: return "AF_INET";
    case 10: return "AF_INET6";
  }
  return "AF_UNSPEC";
}

const char* socket_type_name(int type) {
  switch (type) {
    case 1: return "SOCK_STREAM";
    case 2: return "SOCK_DGRAM";
  }
  return "SOCK_RAW";
}

}  // namespace

SyscallResult Kernel::sys_socket(Pid pid, int domain, int type) {
  Process& p = processes_.at(pid);
  std::uint64_t ino = vfs_.allocate_anonymous(FileType::Socket);
  int fd = p.next_fd++;
  OpenFile& file = p.fds[fd] = OpenFile{};
  file.ino = ino;
  file.flags = kO_RDWR;
  file.is_socket = true;
  SyscallResult sys = SyscallResult::success(fd);
  if (LibcEvent* e = emit_libc(pid, "socket", sys.ret, sys.error)) {
    e->args = {socket_domain_name(domain), socket_type_name(type)};
  }
  // The socket family is outside the default audit rules — SPADE's
  // baseline misses all of group 5 (an "audit"-style recorder installs
  // explicit -S socket,... rules to see them).
  if (AuditEvent* e = emit_audit(pid, "socket", true, fd)) {
    e->fields.emplace("family", socket_domain_name(domain));
    e->fields.emplace("type", socket_type_name(type));
  }
  if (LsmEvent* e = emit_lsm(pid, "socket_create")) {
    e->object = object_for_inode(ino, std::nullopt);
    e->fields.emplace("family", socket_domain_name(domain));
    e->fields.emplace("type", socket_type_name(type));
  }
  return sys;
}

SyscallResult Kernel::do_socket_addr(Pid pid, std::string_view call,
                                     int fd, std::string_view addr) {
  Process& p = processes_.at(pid);
  auto it = p.fds.find(fd);
  SyscallResult sys;
  std::uint64_t ino = 0;
  if (it == p.fds.end()) {
    sys = SyscallResult::fail(Errno::kBADF);
  } else if (!it->second.is_socket) {
    sys = SyscallResult::fail(Errno::kINVAL);
  } else {
    ino = it->second.ino;
    it->second.sock_addr = keep(addr);
    sys = SyscallResult::success(0);
  }
  if (LibcEvent* e = emit_libc(pid, call, sys.ret, sys.error)) {
    e->args = {num(fd), keep(addr)};
  }
  if (AuditEvent* e = emit_audit(pid, call, sys.ok(), sys.ret)) {
    e->fields.emplace("a0", num(fd));
    e->fields.emplace("addr", keep(addr));
  }
  if (sys.ok()) {
    if (LsmEvent* e = emit_lsm(
            pid, call == "bind" ? "socket_bind" : "socket_connect")) {
      e->object = object_for_inode(ino, std::nullopt);
      e->fields.emplace("addr", keep(addr));
    }
  }
  return sys;
}

SyscallResult Kernel::sys_bind(Pid pid, int fd, std::string_view addr) {
  return do_socket_addr(pid, "bind", fd, addr);
}

SyscallResult Kernel::sys_connect(Pid pid, int fd, std::string_view addr) {
  return do_socket_addr(pid, "connect", fd, addr);
}

SyscallResult Kernel::sys_listen(Pid pid, int fd, int backlog) {
  Process& p = processes_.at(pid);
  auto it = p.fds.find(fd);
  SyscallResult sys;
  std::uint64_t ino = 0;
  if (it == p.fds.end()) {
    sys = SyscallResult::fail(Errno::kBADF);
  } else if (!it->second.is_socket) {
    sys = SyscallResult::fail(Errno::kINVAL);
  } else {
    ino = it->second.ino;
    it->second.listening = true;
    sys = SyscallResult::success(0);
  }
  if (LibcEvent* e = emit_libc(pid, "listen", sys.ret, sys.error)) {
    e->args = {num(fd), num(backlog)};
  }
  if (AuditEvent* e = emit_audit(pid, "listen", sys.ok(), sys.ret)) {
    e->fields.emplace("a0", num(fd));
    e->fields.emplace("backlog", num(backlog));
  }
  if (sys.ok()) {
    if (LsmEvent* e = emit_lsm(pid, "socket_listen")) {
      e->object = object_for_inode(ino, std::nullopt);
      e->fields.emplace("backlog", num(backlog));
    }
  }
  return sys;
}

SyscallResult Kernel::sys_accept(Pid pid, int fd) {
  Process& p = processes_.at(pid);
  auto it = p.fds.find(fd);
  SyscallResult sys;
  std::uint64_t listen_ino = 0;
  std::uint64_t conn_ino = 0;
  if (it == p.fds.end()) {
    sys = SyscallResult::fail(Errno::kBADF);
  } else if (!it->second.is_socket || !it->second.listening) {
    sys = SyscallResult::fail(Errno::kINVAL);
  } else {
    listen_ino = it->second.ino;
    conn_ino = vfs_.allocate_anonymous(FileType::Socket);
    int new_fd = p.next_fd++;
    OpenFile file;
    file.ino = conn_ino;
    file.flags = kO_RDWR;
    file.is_socket = true;
    file.sock_addr = it->second.sock_addr;
    p.fds[new_fd] = file;
    sys = SyscallResult::success(new_fd);
  }
  if (LibcEvent* e = emit_libc(pid, "accept", sys.ret, sys.error)) {
    e->args = {num(fd)};
  }
  if (AuditEvent* e = emit_audit(pid, "accept", sys.ok(), sys.ret)) {
    e->fields.emplace("a0", num(fd));
  }
  if (sys.ok()) {
    if (LsmEvent* e = emit_lsm(pid, "socket_accept")) {
      e->object = object_for_inode(listen_ino, std::nullopt);
      e->object2 = object_for_inode(conn_ino, std::nullopt);
    }
  }
  return sys;
}

SyscallResult Kernel::do_socket_io(Pid pid, std::string_view call, int fd,
                                   std::uint64_t count, bool is_send) {
  Process& p = processes_.at(pid);
  auto it = p.fds.find(fd);
  SyscallResult sys;
  std::uint64_t ino = 0;
  std::string_view addr;
  if (it == p.fds.end()) {
    sys = SyscallResult::fail(Errno::kBADF);
  } else if (!it->second.is_socket) {
    sys = SyscallResult::fail(Errno::kINVAL);
  } else {
    ino = it->second.ino;
    addr = it->second.sock_addr;
    sys = SyscallResult::success(static_cast<long>(count));
  }
  if (LibcEvent* e = emit_libc(pid, call, sys.ret, sys.error)) {
    e->args = {num(fd), num(count)};
  }
  if (AuditEvent* e = emit_audit(pid, call, sys.ok(), sys.ret)) {
    e->fields.emplace("a0", num(fd));
    if (!addr.empty()) e->fields.emplace("addr", addr);
  }
  if (sys.ok()) {
    if (LsmEvent* e = emit_lsm(
            pid, is_send ? "socket_sendmsg" : "socket_recvmsg")) {
      e->object = object_for_inode(ino, std::nullopt);
      e->fields.emplace("bytes", num(count));
    }
  }
  return sys;
}

SyscallResult Kernel::sys_sendto(Pid pid, int fd, std::uint64_t count) {
  return do_socket_io(pid, "sendto", fd, count, true);
}

SyscallResult Kernel::sys_recvfrom(Pid pid, int fd, std::uint64_t count) {
  return do_socket_io(pid, "recvfrom", fd, count, false);
}

// ---------------------------------------------------------------------------
// memory mappings / threads
// ---------------------------------------------------------------------------

SyscallResult Kernel::sys_mmap(Pid pid, int fd, std::uint64_t length,
                               int prot) {
  Process& p = processes_.at(pid);
  auto it = p.fds.find(fd);
  SyscallResult sys;
  std::uint64_t ino = 0;
  std::string_view path;
  if (it == p.fds.end()) {
    sys = SyscallResult::fail(Errno::kBADF);
  } else {
    ino = it->second.ino;
    path = it->second.path;
    sys = SyscallResult::success(static_cast<long>(length));
  }
  if (LibcEvent* e = emit_libc(pid, "mmap", sys.ret, sys.error)) {
    e->args = {num(fd), num(length),
               prot_text(prot)};
  }
  if (AuditEvent* e = emit_audit(pid, "mmap", sys.ok(), sys.ret)) {
    if (!path.empty()) e->paths.push_back({path, ino, "NORMAL"});
    e->fields.emplace("prot", prot_text(prot));
  }
  if (sys.ok()) {
    if (LsmEvent* e = emit_lsm(pid, "mmap_file")) {
      e->object = object_for_inode(ino, lsm_path(path));
      e->fields.emplace("prot", prot_text(prot));
    }
  }
  return sys;
}

SyscallResult Kernel::sys_munmap(Pid pid, std::uint64_t length) {
  // Releasing a mapping is invisible to every layer but libc: munmap is
  // not in the default audit rules and LSM has no unmap hook.
  SyscallResult sys = SyscallResult::success(0);
  if (LibcEvent* e = emit_libc(pid, "munmap", sys.ret, sys.error)) {
    e->args = {num(length)};
  }
  return sys;
}

SyscallResult Kernel::sys_clone_thread(Pid pid) {
  Process& parent = processes_.at(pid);
  Process thread(memory());
  thread.pid = allocate_pid();
  thread.ppid = pid;
  thread.creds = parent.creds;
  thread.comm = parent.comm;
  thread.exe = parent.exe;
  thread.cwd = parent.cwd;
  thread.fds = parent.fds;
  thread.next_fd = parent.next_fd;
  Pid tid = thread.pid;
  processes_.emplace(tid, std::move(thread));
  if (LibcEvent* e = emit_libc(pid, "clone", tid, Errno::None)) {
    e->args = {"CLONE_THREAD|CLONE_VM"};
  }
  if (LsmEvent* e = emit_lsm(pid, "task_alloc")) {
    e->object =
        LsmObject{"task", static_cast<std::uint64_t>(tid), std::nullopt};
    e->fields.emplace("call", "clone");
    e->fields.emplace("thread", "1");
  }
  if (AuditEvent* e = emit_audit(pid, "clone", true, tid)) {
    e->fields.emplace("child", num(tid));
    e->fields.emplace("flags", "CLONE_THREAD|CLONE_VM");
  }
  return SyscallResult::success(tid);
}

}  // namespace provmark::os
