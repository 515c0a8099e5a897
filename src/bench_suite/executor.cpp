#include "bench_suite/executor.h"

#include <functional>
#include <map>
#include <memory_resource>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/strings.h"

namespace provmark::bench_suite {

namespace {

using os::Kernel;
using os::Pid;
using os::SyscallResult;

class ProgramRun {
 public:
  ProgramRun(Kernel& kernel, Pid pid)
      : kernel_(kernel), pid_(pid), vars_(kernel.region().resource()) {}

  /// Execute one op; returns its syscall result.
  SyscallResult run_op(const Op& o) {
    switch (o.code) {
      case OpCode::Open:
        return store(o.out, kernel_.sys_open(pid_, o.path, o.flags, o.mode));
      case OpCode::OpenAt:
        return store(o.out,
                     kernel_.sys_openat(pid_, o.path, o.flags, o.mode));
      case OpCode::Creat:
        return store(o.out, kernel_.sys_creat(pid_, o.path, o.mode));
      case OpCode::Close:
        return kernel_.sys_close(pid_, fd(o));
      case OpCode::Dup:
        return store(o.out, kernel_.sys_dup(pid_, fd(o)));
      case OpCode::Dup2:
        return store(o.out,
                     kernel_.sys_dup2(pid_, fd(o), static_cast<int>(o.a)));
      case OpCode::Dup3:
        return store(o.out, kernel_.sys_dup3(pid_, fd(o),
                                             static_cast<int>(o.a),
                                             static_cast<int>(o.b)));
      case OpCode::Read:
        return kernel_.sys_read(pid_, fd(o), static_cast<std::uint64_t>(o.a));
      case OpCode::PRead:
        return kernel_.sys_pread(pid_, fd(o),
                                 static_cast<std::uint64_t>(o.a),
                                 static_cast<std::uint64_t>(o.b));
      case OpCode::Write:
        return kernel_.sys_write(pid_, fd(o),
                                 static_cast<std::uint64_t>(o.a));
      case OpCode::PWrite:
        return kernel_.sys_pwrite(pid_, fd(o),
                                  static_cast<std::uint64_t>(o.a),
                                  static_cast<std::uint64_t>(o.b));
      case OpCode::Link:
        return kernel_.sys_link(pid_, o.path, o.path2);
      case OpCode::LinkAt:
        return kernel_.sys_linkat(pid_, o.path, o.path2);
      case OpCode::Symlink:
        return kernel_.sys_symlink(pid_, o.path, o.path2);
      case OpCode::SymlinkAt:
        return kernel_.sys_symlinkat(pid_, o.path, o.path2);
      case OpCode::Mknod:
        return kernel_.sys_mknod(pid_, o.path, o.mode);
      case OpCode::MknodAt:
        return kernel_.sys_mknodat(pid_, o.path, o.mode);
      case OpCode::Rename:
        return kernel_.sys_rename(pid_, o.path, o.path2);
      case OpCode::RenameAt:
        return kernel_.sys_renameat(pid_, o.path, o.path2);
      case OpCode::Truncate:
        return kernel_.sys_truncate(pid_, o.path,
                                    static_cast<std::uint64_t>(o.a));
      case OpCode::FTruncate:
        return kernel_.sys_ftruncate(pid_, fd(o),
                                     static_cast<std::uint64_t>(o.a));
      case OpCode::Unlink:
        return kernel_.sys_unlink(pid_, o.path);
      case OpCode::UnlinkAt:
        return kernel_.sys_unlinkat(pid_, o.path);
      case OpCode::Chmod:
        return kernel_.sys_chmod(pid_, o.path, o.mode);
      case OpCode::FChmod:
        return kernel_.sys_fchmod(pid_, fd(o), o.mode);
      case OpCode::FChmodAt:
        return kernel_.sys_fchmodat(pid_, o.path, o.mode);
      case OpCode::Chown:
        return kernel_.sys_chown(pid_, o.path, static_cast<int>(o.a),
                                 static_cast<int>(o.b));
      case OpCode::FChown:
        return kernel_.sys_fchown(pid_, fd(o), static_cast<int>(o.a),
                                  static_cast<int>(o.b));
      case OpCode::FChownAt:
        return kernel_.sys_fchownat(pid_, o.path, static_cast<int>(o.a),
                                    static_cast<int>(o.b));
      case OpCode::SetGid:
        return kernel_.sys_setgid(pid_, static_cast<int>(o.a));
      case OpCode::SetReGid:
        return kernel_.sys_setregid(pid_, static_cast<int>(o.a),
                                    static_cast<int>(o.b));
      case OpCode::SetResGid:
        return kernel_.sys_setresgid(pid_, static_cast<int>(o.a),
                                     static_cast<int>(o.b),
                                     static_cast<int>(o.c));
      case OpCode::SetUid:
        return kernel_.sys_setuid(pid_, static_cast<int>(o.a));
      case OpCode::SetReUid:
        return kernel_.sys_setreuid(pid_, static_cast<int>(o.a),
                                    static_cast<int>(o.b));
      case OpCode::SetResUid:
        return kernel_.sys_setresuid(pid_, static_cast<int>(o.a),
                                     static_cast<int>(o.b),
                                     static_cast<int>(o.c));
      case OpCode::Pipe: {
        std::pair<int, int> fds;
        SyscallResult r = kernel_.sys_pipe(pid_, &fds);
        if (r.ok()) {
          if (!o.out.empty()) vars_[o.out] = fds.first;
          if (!o.out2.empty()) vars_[o.out2] = fds.second;
        }
        return r;
      }
      case OpCode::Pipe2: {
        std::pair<int, int> fds;
        SyscallResult r =
            kernel_.sys_pipe2(pid_, static_cast<int>(o.a), &fds);
        if (r.ok()) {
          if (!o.out.empty()) vars_[o.out] = fds.first;
          if (!o.out2.empty()) vars_[o.out2] = fds.second;
        }
        return r;
      }
      case OpCode::Tee:
        return kernel_.sys_tee(pid_, fd(o),
                               static_cast<int>(var_or(o.var2, -1)),
                               static_cast<std::uint64_t>(o.a));
      case OpCode::Fork:
      case OpCode::VFork:
      case OpCode::Clone: {
        SyscallResult r = o.code == OpCode::Fork    ? kernel_.sys_fork(pid_)
                          : o.code == OpCode::VFork ? kernel_.sys_vfork(pid_)
                                                    : kernel_.sys_clone(pid_);
        if (r.ok()) {
          // The benchmark child does nothing and exits immediately.
          kernel_.finish_process(static_cast<Pid>(r.ret));
          if (!o.out.empty()) vars_[o.out] = r.ret;
        }
        return r;
      }
      case OpCode::Execve:
        return kernel_.sys_execve(pid_, o.path);
      case OpCode::Exit:
        return kernel_.sys_exit(pid_, static_cast<int>(o.a));
      case OpCode::Kill:
        return kernel_.sys_kill(pid_, static_cast<Pid>(var_or(o.var, -1)),
                                static_cast<int>(o.a));
      case OpCode::Socket:
        return store(o.out, kernel_.sys_socket(pid_, static_cast<int>(o.a),
                                               static_cast<int>(o.b)));
      case OpCode::Connect:
        return kernel_.sys_connect(pid_, fd(o), o.path);
      case OpCode::Bind:
        return kernel_.sys_bind(pid_, fd(o), o.path);
      case OpCode::Listen:
        return kernel_.sys_listen(pid_, fd(o), static_cast<int>(o.a));
      case OpCode::Accept:
        return store(o.out, kernel_.sys_accept(pid_, fd(o)));
      case OpCode::SendTo:
        return kernel_.sys_sendto(pid_, fd(o),
                                  static_cast<std::uint64_t>(o.a));
      case OpCode::RecvFrom:
        return kernel_.sys_recvfrom(pid_, fd(o),
                                    static_cast<std::uint64_t>(o.a));
      case OpCode::Mmap:
        return kernel_.sys_mmap(pid_, fd(o),
                                static_cast<std::uint64_t>(o.a),
                                static_cast<int>(o.b));
      case OpCode::Munmap:
        return kernel_.sys_munmap(pid_, static_cast<std::uint64_t>(o.a));
      case OpCode::Thread: {
        SyscallResult r = kernel_.sys_clone_thread(pid_);
        if (r.ok()) {
          kernel_.finish_process(static_cast<Pid>(r.ret));
          if (!o.out.empty()) vars_[o.out] = r.ret;
        }
        return r;
      }
    }
    return SyscallResult::fail(os::Errno::kINVAL);
  }

 private:
  /// Variable lookup that tolerates undefined names (generator- or
  /// parser-fed programs may reference a var whose producer op failed):
  /// the fallback flows into the kernel as an invalid fd/pid -> EBADF.
  long var_or(std::string_view name, long fallback) const {
    auto it = vars_.find(name);
    return it == vars_.end() ? fallback : it->second;
  }

  int fd(const Op& o) const {
    if (!o.var.empty()) return static_cast<int>(var_or(o.var, -1));
    return static_cast<int>(o.a);
  }

  SyscallResult store(std::string_view out, SyscallResult r) {
    if (r.ok() && !out.empty()) vars_[out] = r.ret;
    return r;
  }

  Kernel& kernel_;
  Pid pid_;
  /// Variable values by name; the names view the program's ops.
  std::pmr::map<std::string_view, long, std::less<>> vars_;
};

}  // namespace

ExecutionResult execute_program(
    const BenchmarkProgram& program, bool include_target, std::uint64_t seed,
    const std::set<std::string>& extra_audit_rules, os::Layers layers) {
  Kernel::Options options;
  options.seed = seed;
  options.extra_audit_rules = &extra_audit_rules;
  options.layers = layers;
  if (program.creds.has_value()) options.initial_creds = *program.creds;
  Kernel kernel(std::move(options));
  util::Region& region = kernel.region();

  // Staging: prepare the filesystem before recording starts.
  auto absolute = [&region](std::string_view path) {
    if (!path.empty() && path.front() == '/') return path;
    return region.join({"/home/user/", path});
  };
  for (const StageAction& action : program.staging) {
    switch (action.kind) {
      case StageAction::Kind::File:
        kernel.stage_file(absolute(action.path), action.mode, action.uid,
                          action.gid);
        break;
      case StageAction::Kind::Fifo:
        kernel.stage_fifo(absolute(action.path));
        break;
      case StageAction::Kind::Symlink:
        kernel.stage_symlink(action.target, absolute(action.path));
        break;
      case StageAction::Kind::Remove:
        kernel.stage_remove(absolute(action.path));
        break;
    }
  }

  bool behaviour_ok = true;
  std::string failure_reason;
  kernel.start_recording();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  ProgramRun run(kernel, pid);

  // Nondeterministic target activity (§5.4 extension): the scheduler
  // decides the completion order of the (independent) target ops, driven
  // by the trial seed. Ops keep their positions otherwise.
  std::pmr::vector<const Op*> ops(region.resource());
  ops.reserve(program.ops.size());
  for (const Op& o : program.ops) ops.push_back(&o);
  if (program.shuffle_targets && include_target) {
    std::pmr::vector<std::size_t> target_positions(region.resource());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i]->target) target_positions.push_back(i);
    }
    util::Rng schedule_rng(seed ^ 0x5EDULL);
    for (std::size_t i = target_positions.size(); i > 1; --i) {
      std::size_t j = schedule_rng.next_below(i);
      std::swap(ops[target_positions[i - 1]], ops[target_positions[j]]);
    }
  }

  for (const Op* op_ptr : ops) {
    const Op& o = *op_ptr;
    if (o.target && !include_target) continue;
    SyscallResult r = run.run_op(o);
    bool ok = r.ok();
    if (!o.may_fail && ok == o.expect_failure) {
      behaviour_ok = false;
      failure_reason = util::format(
          "%s %s unexpectedly (errno %s)", opcode_name(o.code),
          o.expect_failure ? "succeeded" : "failed",
          os::errno_name(r.error));
    }
    // An explicit exit terminates the program; remaining ops never run.
    if (o.code == OpCode::Exit) break;
  }
  kernel.finish_process(pid);
  kernel.stop_recording();
  return {kernel.take_trace(), behaviour_ok, std::move(failure_reason)};
}

}  // namespace provmark::bench_suite
