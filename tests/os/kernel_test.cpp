#include "os/kernel.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>

#include "util/rng.h"
#include "util/strings.h"

namespace provmark::os {
namespace {

Kernel recording_kernel(std::uint64_t seed = 1) {
  Kernel::Options options;
  options.seed = seed;
  options.free_record_probability = 0;  // deterministic traces for tests
  Kernel kernel(options);
  return kernel;
}

TEST(Kernel, LaunchProgramRecordsBoilerplate) {
  Kernel kernel = recording_kernel();
  kernel.start_recording();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.finish_process(pid);
  kernel.stop_recording();
  const EventTrace& trace = kernel.trace();
  // fork + execve + loader opens/reads/closes show up on all layers.
  EXPECT_GT(trace.audit.size(), 5u);
  EXPECT_GT(trace.libc.size(), 5u);
  EXPECT_GT(trace.lsm.size(), 5u);
  bool saw_execve = false, saw_libc_open = false, saw_task_alloc = false;
  for (const AuditEvent& e : trace.audit) {
    if (e.syscall == "execve") saw_execve = true;
  }
  for (const LibcEvent& e : trace.libc) {
    if (e.function == "open") saw_libc_open = true;
  }
  for (const LsmEvent& e : trace.lsm) {
    if (e.hook == "task_alloc") saw_task_alloc = true;
  }
  EXPECT_TRUE(saw_execve);
  EXPECT_TRUE(saw_libc_open);
  EXPECT_TRUE(saw_task_alloc);
}

TEST(Kernel, FlagStringsComeFromTheFlagTable) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  // Access mode 03 has no name and reads as O_RDWR.
  kernel.sys_open(pid, "/etc/passwd", 03 | kO_TRUNC | kO_CLOEXEC);
  kernel.sys_open(pid, "/etc/passwd", kO_RDONLY);
  kernel.sys_mmap(pid, -1, 4096, 0);  // 0 is treated as PROT_READ
  kernel.sys_mmap(pid, -1, 4096, 8);  // no known bit
  kernel.sys_mmap(pid, -1, 4096, 7);
  std::vector<std::string> open_flags, prot;
  for (const LibcEvent& e : kernel.trace().libc) {
    if (e.function == "open") open_flags.emplace_back(e.args.at(1));
    if (e.function == "mmap") prot.emplace_back(e.args.at(2));
  }
  EXPECT_EQ(open_flags, (std::vector<std::string>{"O_RDWR|O_TRUNC|O_CLOEXEC",
                                                  "O_RDONLY"}));
  EXPECT_EQ(prot, (std::vector<std::string>{
                      "PROT_READ", "PROT_NONE",
                      "PROT_READ|PROT_WRITE|PROT_EXEC"}));
}

TEST(Kernel, NothingRecordedWhileStopped) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.sys_open(pid, "/etc/passwd", kO_RDONLY);
  EXPECT_TRUE(kernel.trace().libc.empty());
  EXPECT_TRUE(kernel.trace().audit.empty());
  EXPECT_TRUE(kernel.trace().lsm.empty());
}

TEST(Kernel, OpenReadCloseLifecycle) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  SyscallResult fd = kernel.sys_open(pid, "/etc/passwd", kO_RDONLY);
  ASSERT_TRUE(fd.ok());
  EXPECT_GE(fd.ret, 3);
  EXPECT_TRUE(kernel.sys_read(pid, static_cast<int>(fd.ret), 100).ok());
  EXPECT_TRUE(kernel.sys_close(pid, static_cast<int>(fd.ret)).ok());
  // Second close: EBADF, and audit stays silent about the failure.
  SyscallResult again = kernel.sys_close(pid, static_cast<int>(fd.ret));
  EXPECT_EQ(again.error, Errno::kBADF);
  for (const AuditEvent& e : kernel.trace().audit) {
    EXPECT_TRUE(e.success);
  }
}

TEST(Kernel, FailedCallVisibleToLibcOnly) {
  Kernel::Options options;
  options.seed = 2;
  options.initial_creds = Credentials{1000, 1000, 1000, 1000, 1000, 1000};
  Kernel kernel(options);
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  SyscallResult r = kernel.sys_rename(pid, "/home/user/x", "/etc/passwd");
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(kernel.trace().libc.size(), 1u);
  EXPECT_EQ(kernel.trace().libc[0].ret, -1);
  EXPECT_TRUE(kernel.trace().audit.empty());  // success-only audit rules
}

TEST(Kernel, PermissionDeniedRenameEmitsDeniedLsmEvent) {
  Kernel::Options options;
  options.seed = 3;
  options.initial_creds = Credentials{1000, 1000, 1000, 1000, 1000, 1000};
  Kernel kernel(options);
  kernel.stage_file("/home/user/mine", 0644, 1000, 1000);
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  SyscallResult r = kernel.sys_rename(pid, "/home/user/mine", "/etc/passwd");
  EXPECT_EQ(r.error, Errno::kACCES);
  ASSERT_EQ(kernel.trace().lsm.size(), 1u);
  EXPECT_TRUE(kernel.trace().lsm[0].permission_denied);
  EXPECT_EQ(kernel.trace().lsm[0].hook, "inode_rename");
}

TEST(Kernel, DupEmitsNoLsmEvent) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  SyscallResult fd = kernel.sys_open(pid, "/etc/passwd", kO_RDONLY);
  kernel.start_recording();
  SyscallResult dup = kernel.sys_dup(pid, static_cast<int>(fd.ret));
  ASSERT_TRUE(dup.ok());
  EXPECT_NE(dup.ret, fd.ret);
  EXPECT_TRUE(kernel.trace().lsm.empty());
  EXPECT_EQ(kernel.trace().audit.size(), 1u);  // audited, though
  EXPECT_EQ(kernel.trace().libc.size(), 1u);
}

TEST(Kernel, Dup2TargetsRequestedDescriptor) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  SyscallResult fd = kernel.sys_open(pid, "/etc/passwd", kO_RDONLY);
  SyscallResult dup = kernel.sys_dup2(pid, static_cast<int>(fd.ret), 10);
  EXPECT_EQ(dup.ret, 10);
  EXPECT_TRUE(kernel.sys_read(pid, 10, 5).ok());
}

TEST(Kernel, PipeAndTee) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  std::pair<int, int> p1, p2;
  ASSERT_TRUE(kernel.sys_pipe(pid, &p1).ok());
  ASSERT_TRUE(kernel.sys_pipe(pid, &p2).ok());
  // tee from read end of p1 to write end of p2 succeeds...
  EXPECT_TRUE(kernel.sys_tee(pid, p1.first, p2.second, 512).ok());
  // ...but rejects non-pipe fds and wrong ends.
  EXPECT_EQ(kernel.sys_tee(pid, p1.second, p2.second, 1).error,
            Errno::kINVAL);
  EXPECT_EQ(kernel.sys_tee(pid, 99, p2.second, 1).error, Errno::kBADF);
  // Pipes are invisible to audit and (for allocation) to LSM; tee shows
  // up as two file_permission hooks.
  EXPECT_TRUE(kernel.trace().audit.empty());
  std::size_t perm_hooks = 0;
  for (const LsmEvent& e : kernel.trace().lsm) {
    if (e.hook == "file_permission") ++perm_hooks;
  }
  EXPECT_EQ(perm_hooks, 2u);
}

TEST(Kernel, ForkCopiesDescriptors) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  SyscallResult fd = kernel.sys_open(pid, "/etc/passwd", kO_RDONLY);
  SyscallResult child = kernel.sys_fork(pid);
  ASSERT_TRUE(child.ok());
  Pid child_pid = static_cast<Pid>(child.ret);
  EXPECT_TRUE(kernel.sys_read(child_pid, static_cast<int>(fd.ret), 7).ok());
  EXPECT_EQ(kernel.process(child_pid)->ppid, pid);
}

TEST(Kernel, VforkDefersParentAuditUntilChildExit) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  SyscallResult child = kernel.sys_vfork(pid);
  ASSERT_TRUE(child.ok());
  // Before the child exits, the parent's vfork record is invisible.
  bool vfork_seen = false;
  for (const AuditEvent& e : kernel.trace().audit) {
    if (e.syscall == "vfork") vfork_seen = true;
  }
  EXPECT_FALSE(vfork_seen);
  kernel.finish_process(static_cast<Pid>(child.ret));
  // Now it appears, *after* the child's exit_group.
  const auto& audit = kernel.trace().audit;
  std::size_t child_exit_index = audit.size(), vfork_index = audit.size();
  for (std::size_t i = 0; i < audit.size(); ++i) {
    if (audit[i].syscall == "exit_group" &&
        audit[i].pid == static_cast<Pid>(child.ret)) {
      child_exit_index = i;
    }
    if (audit[i].syscall == "vfork") vfork_index = i;
  }
  ASSERT_LT(child_exit_index, audit.size());
  ASSERT_LT(vfork_index, audit.size());
  EXPECT_LT(child_exit_index, vfork_index);
}

TEST(Kernel, ForkAuditPrecedesChildRecords) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  SyscallResult child = kernel.sys_fork(pid);
  kernel.finish_process(static_cast<Pid>(child.ret));
  const auto& audit = kernel.trace().audit;
  ASSERT_GE(audit.size(), 2u);
  EXPECT_EQ(audit[0].syscall, "fork");
  EXPECT_EQ(audit[1].syscall, "exit_group");
}

TEST(Kernel, SetidFamilyUpdatesCredentials) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  ASSERT_TRUE(kernel.sys_setuid(pid, 100).ok());
  EXPECT_EQ(kernel.process(pid)->creds.uid, 100);
  EXPECT_EQ(kernel.process(pid)->creds.euid, 100);
  // After dropping to 100, raising back requires privilege.
  EXPECT_EQ(kernel.sys_setuid(pid, 0).error, Errno::kPERM);
}

TEST(Kernel, SetresCallsAreNotAuditedByDefault) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  ASSERT_TRUE(kernel.sys_setresuid(pid, 1000, 1000, 1000).ok());
  EXPECT_TRUE(kernel.trace().audit.empty());
  ASSERT_EQ(kernel.trace().lsm.size(), 1u);  // but LSM sees cred_prepare
  EXPECT_EQ(kernel.trace().lsm[0].hook, "cred_prepare");
}

TEST(Kernel, ExtraAuditRulesEnableSetres) {
  Kernel::Options options;
  options.seed = 4;
  const std::set<std::string> rules = {"setresuid"};
  options.extra_audit_rules = &rules;
  Kernel kernel(options);
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  kernel.sys_setresuid(pid, 1000, 1000, 1000);
  ASSERT_EQ(kernel.trace().audit.size(), 1u);
  EXPECT_EQ(kernel.trace().audit[0].syscall, "setresuid");
}

TEST(Kernel, KillOfDeadChildFailsWithEsrch) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  SyscallResult child = kernel.sys_fork(pid);
  kernel.finish_process(static_cast<Pid>(child.ret));
  kernel.start_recording();
  SyscallResult r = kernel.sys_kill(pid, static_cast<Pid>(child.ret), 15);
  EXPECT_EQ(r.error, Errno::kSRCH);
  EXPECT_TRUE(kernel.trace().audit.empty());
  EXPECT_TRUE(kernel.trace().lsm.empty());
}

TEST(Kernel, KillOfLiveProcessSuppressesItsExitRecord) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  SyscallResult child = kernel.sys_fork(pid);
  kernel.start_recording();
  ASSERT_TRUE(kernel.sys_kill(pid, static_cast<Pid>(child.ret), 9).ok());
  kernel.finish_process(static_cast<Pid>(child.ret));  // already dead
  for (const AuditEvent& e : kernel.trace().audit) {
    EXPECT_NE(e.syscall, "exit_group");
  }
}

TEST(Kernel, ExitIsIdempotentWithImplicitExit) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  kernel.sys_exit(pid, 0);
  kernel.finish_process(pid);  // the harness's implicit finish
  int exits = 0;
  for (const AuditEvent& e : kernel.trace().audit) {
    if (e.syscall == "exit_group") ++exits;
  }
  EXPECT_EQ(exits, 1);
}

TEST(Kernel, ExecveRunsLoaderAgain) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  ASSERT_TRUE(kernel.sys_execve(pid, "/usr/bin/true").ok());
  EXPECT_EQ(kernel.process(pid)->comm, "true");
  int opens = 0;
  for (const AuditEvent& e : kernel.trace().audit) {
    if (e.syscall == "open") ++opens;
  }
  EXPECT_GE(opens, 2);  // ld.so.cache + libc
}

TEST(Kernel, MknodNotAuditedButLsmSeesIt) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  ASSERT_TRUE(kernel.sys_mknod(pid, "node", 0644).ok());
  EXPECT_TRUE(kernel.trace().audit.empty());
  ASSERT_EQ(kernel.trace().lsm.size(), 1u);
  EXPECT_EQ(kernel.trace().lsm[0].hook, "inode_mknod");
}

TEST(Kernel, RelativePathsResolveAgainstCwd) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  ASSERT_TRUE(kernel.sys_creat(pid, "rel.txt").ok());
  EXPECT_TRUE(kernel.vfs().lookup("/home/user/rel.txt").ok());
}

TEST(Kernel, TransientValuesVaryWithSeed) {
  Kernel a = recording_kernel(1);
  Kernel b = recording_kernel(2);
  a.start_recording();
  b.start_recording();
  Pid pa = a.launch_program("/usr/bin/bench", "bench");
  Pid pb = b.launch_program("/usr/bin/bench", "bench");
  EXPECT_NE(pa, pb);
  ASSERT_FALSE(a.trace().audit.empty());
  ASSERT_FALSE(b.trace().audit.empty());
  EXPECT_NE(a.trace().audit[0].serial, b.trace().audit[0].serial);
}

TEST(Kernel, SameSeedGivesIdenticalTraces) {
  for (int run = 0; run < 2; ++run) {
    Kernel a = recording_kernel(9);
    Kernel b = recording_kernel(9);
    a.start_recording();
    b.start_recording();
    a.launch_program("/usr/bin/bench", "bench");
    b.launch_program("/usr/bin/bench", "bench");
    ASSERT_EQ(a.trace().audit.size(), b.trace().audit.size());
    for (std::size_t i = 0; i < a.trace().audit.size(); ++i) {
      EXPECT_EQ(a.trace().audit[i].serial, b.trace().audit[i].serial);
      EXPECT_EQ(a.trace().audit[i].syscall, b.trace().audit[i].syscall);
    }
  }
}

// The time field is written with std::to_chars; it must keep the bytes
// of printf("%.4f") over the kernel's clock range (1.6e9 plus up to
// ~2e6 s of boot offset and ticks), including exact binary ties, where
// both round half to even.
TEST(KernelFields, TimeFieldMatchesPrintf) {
  util::Rng rng(20261017);
  for (int i = 0; i < 1'000'000; ++i) {
    const double x = 1.6e9 + static_cast<double>(rng.next_below(2'000'000)) +
                     static_cast<double>(rng.next_below(1u << 30)) /
                         static_cast<double>(1u << 30);
    ASSERT_EQ(time_field(x), util::format("%.4f", x)) << i;
  }
  // The kernel's own walk: ticks of 0.0001 * [1, 50] s from a boot time.
  double clock = 1.6e9 + static_cast<double>(rng.next_below(1'000'000));
  for (int i = 0; i < 200'000; ++i) {
    clock += 0.0001 * static_cast<double>(1 + rng.next_below(50));
    ASSERT_EQ(time_field(clock), util::format("%.4f", clock)) << i;
  }
  for (int k = 0; k < 32 * 64; ++k) {
    const double x = 1.6e9 + static_cast<double>(k) / 32;
    ASSERT_EQ(time_field(x), util::format("%.4f", x)) << k << "/32";
  }
  for (double x : {0.0, -0.0, 0.00005, 0.00015, -1.25, 1e20, 123.45675}) {
    EXPECT_EQ(time_field(x), util::format("%.4f", x)) << x;
  }
}

TEST(KernelFields, OctalFieldMatchesPrintf) {
  for (int mode = 0; mode <= 07777; ++mode) {
    ASSERT_EQ(octal_field(mode), util::format("%o", mode)) << mode;
  }
  for (int mode : {-1, -0644, -07777, std::numeric_limits<int>::min()}) {
    EXPECT_EQ(octal_field(mode), util::format("%o", mode)) << mode;
  }
  EXPECT_EQ(octal_field(std::numeric_limits<int>::max()),
            util::format("%o", std::numeric_limits<int>::max()));
}

}  // namespace
}  // namespace provmark::os
