// The network / memory / thread syscall surface added for the extended
// Table 1 rows: per-layer observability (which of libc / audit / LSM
// sees each call), the socket state machine, and the error paths the
// adversarial generator's failure probes rely on.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "os/kernel.h"

namespace provmark::os {
namespace {

Kernel recording_kernel(std::uint64_t seed = 1) {
  Kernel::Options options;
  options.seed = seed;
  options.free_record_probability = 0;  // deterministic traces for tests
  return Kernel(options);
}

/// A kernel with the audit rules the new recorders install (the default
/// SPADE set omits the whole socket family).
Kernel socket_audited_kernel(std::uint64_t seed = 1) {
  Kernel::Options options;
  options.seed = seed;
  options.free_record_probability = 0;
  static const std::set<std::string> kRules = {
      "socket", "bind", "connect", "listen", "accept", "sendto", "recvfrom"};
  options.extra_audit_rules = &kRules;
  return Kernel(options);
}

bool saw_libc(const EventTrace& t, const std::string& function) {
  for (const LibcEvent& e : t.libc) {
    if (e.function == function) return true;
  }
  return false;
}

bool saw_audit(const EventTrace& t, const std::string& syscall) {
  for (const AuditEvent& e : t.audit) {
    if (e.syscall == syscall) return true;
  }
  return false;
}

const LsmEvent* find_lsm(const EventTrace& t, const std::string& hook) {
  for (const LsmEvent& e : t.lsm) {
    if (e.hook == hook) return &e;
  }
  return nullptr;
}

TEST(KernelSocket, SocketCreateVisibleToLibcAndLsmButNotDefaultAudit) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  SyscallResult fd = kernel.sys_socket(pid, 2, 1);  // AF_INET, SOCK_STREAM
  ASSERT_TRUE(fd.ok());
  EXPECT_GE(fd.ret, 3);
  const EventTrace& t = kernel.trace();
  EXPECT_TRUE(saw_libc(t, "socket"));
  // The SPADE default rule set has no socket-family rules (that is what
  // makes the socket benchmarks Table-2 empty cells for SPADE).
  EXPECT_FALSE(saw_audit(t, "socket"));
  const LsmEvent* create = find_lsm(t, "socket_create");
  ASSERT_NE(create, nullptr);
  ASSERT_TRUE(create->object.has_value());
  EXPECT_EQ(create->object->kind, "socket");
  EXPECT_EQ(create->fields.at("family"), "AF_INET");
  EXPECT_EQ(create->fields.at("type"), "SOCK_STREAM");
}

TEST(KernelSocket, ExtraRulesMakeSocketCallsAuditable) {
  Kernel kernel = socket_audited_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  SyscallResult fd = kernel.sys_socket(pid, 2, 2);  // SOCK_DGRAM
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(
      kernel.sys_bind(pid, static_cast<int>(fd.ret), "127.0.0.1:53").ok());
  const EventTrace& t = kernel.trace();
  EXPECT_TRUE(saw_audit(t, "socket"));
  EXPECT_TRUE(saw_audit(t, "bind"));
  for (const AuditEvent& e : t.audit) {
    if (e.syscall == "socket") {
      EXPECT_EQ(e.fields.at("family"), "AF_INET");
      EXPECT_EQ(e.fields.at("type"), "SOCK_DGRAM");
    }
  }
}

TEST(KernelSocket, FullServerLifecycleEmitsTheLsmHookChain) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  int fd = static_cast<int>(kernel.sys_socket(pid, 2, 1).ret);
  ASSERT_TRUE(kernel.sys_bind(pid, fd, "0.0.0.0:8080").ok());
  ASSERT_TRUE(kernel.sys_listen(pid, fd, 16).ok());
  SyscallResult conn = kernel.sys_accept(pid, fd);
  ASSERT_TRUE(conn.ok());
  EXPECT_NE(conn.ret, fd);
  ASSERT_TRUE(
      kernel.sys_sendto(pid, static_cast<int>(conn.ret), 128).ok());
  ASSERT_TRUE(
      kernel.sys_recvfrom(pid, static_cast<int>(conn.ret), 128).ok());

  const EventTrace& t = kernel.trace();
  for (const char* hook :
       {"socket_create", "socket_bind", "socket_listen", "socket_accept",
        "socket_sendmsg", "socket_recvmsg"}) {
    EXPECT_NE(find_lsm(t, hook), nullptr) << hook;
  }
  const LsmEvent* bind = find_lsm(t, "socket_bind");
  ASSERT_NE(bind, nullptr);
  EXPECT_EQ(bind->fields.at("addr"), "0.0.0.0:8080");
  // accept carries both sockets: the listener and the new connection.
  const LsmEvent* accept = find_lsm(t, "socket_accept");
  ASSERT_NE(accept, nullptr);
  ASSERT_TRUE(accept->object.has_value());
  ASSERT_TRUE(accept->object2.has_value());
  EXPECT_NE(accept->object->id, accept->object2->id);
  // The accepted connection inherits the listener's bound address.
  const LsmEvent* send = find_lsm(t, "socket_sendmsg");
  ASSERT_NE(send, nullptr);
  EXPECT_EQ(send->fields.at("bytes"), "128");
}

TEST(KernelSocket, ErrorPathsReturnTypedErrnos) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();

  // Bad fd everywhere: EBADF.
  EXPECT_EQ(kernel.sys_bind(pid, 999, "1.2.3.4:1").error, Errno::kBADF);
  EXPECT_EQ(kernel.sys_connect(pid, 999, "1.2.3.4:1").error, Errno::kBADF);
  EXPECT_EQ(kernel.sys_listen(pid, 999, 1).error, Errno::kBADF);
  EXPECT_EQ(kernel.sys_accept(pid, 999).error, Errno::kBADF);
  EXPECT_EQ(kernel.sys_sendto(pid, 999, 1).error, Errno::kBADF);
  EXPECT_EQ(kernel.sys_recvfrom(pid, 999, 1).error, Errno::kBADF);

  // A regular file is not a socket: EINVAL.
  SyscallResult file = kernel.sys_open(pid, "/etc/passwd", kO_RDONLY);
  ASSERT_TRUE(file.ok());
  int ffd = static_cast<int>(file.ret);
  EXPECT_EQ(kernel.sys_bind(pid, ffd, "1.2.3.4:1").error, Errno::kINVAL);
  EXPECT_EQ(kernel.sys_listen(pid, ffd, 1).error, Errno::kINVAL);
  EXPECT_EQ(kernel.sys_sendto(pid, ffd, 1).error, Errno::kINVAL);

  // accept() without listen(): EINVAL.
  int sfd = static_cast<int>(kernel.sys_socket(pid, 2, 1).ret);
  EXPECT_EQ(kernel.sys_accept(pid, sfd).error, Errno::kINVAL);

  // Failures reach libc (ret -1) but never the success-only audit log.
  int failures = 0;
  for (const LibcEvent& e : kernel.trace().libc) {
    if (e.ret == -1) ++failures;
  }
  EXPECT_GE(failures, 10);
  for (const AuditEvent& e : kernel.trace().audit) {
    EXPECT_TRUE(e.success);
  }
}

TEST(KernelMmap, FileBackedMappingVisibleOnAllLayers) {
  Kernel kernel = recording_kernel();
  kernel.stage_file("/home/user/data.bin");
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  int fd = static_cast<int>(
      kernel.sys_open(pid, "/home/user/data.bin", kO_RDWR).ret);
  SyscallResult map = kernel.sys_mmap(pid, fd, 8192, 3);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map.ret, 8192);

  const EventTrace& t = kernel.trace();
  EXPECT_TRUE(saw_libc(t, "mmap"));
  EXPECT_TRUE(saw_audit(t, "mmap"));  // mmap is in the default rule set
  const LsmEvent* hook = find_lsm(t, "mmap_file");
  ASSERT_NE(hook, nullptr);
  ASSERT_TRUE(hook->object.has_value());
  EXPECT_EQ(hook->object->path, "/home/user/data.bin");
  EXPECT_EQ(hook->fields.at("prot"), "PROT_READ|PROT_WRITE");
}

TEST(KernelMmap, BadFdFailsAndMunmapIsLibcOnly) {
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  EXPECT_EQ(kernel.sys_mmap(pid, 999, 4096, 1).error, Errno::kBADF);

  std::size_t audit_before = kernel.trace().audit.size();
  std::size_t lsm_before = kernel.trace().lsm.size();
  EXPECT_TRUE(kernel.sys_munmap(pid, 4096).ok());
  EXPECT_TRUE(saw_libc(kernel.trace(), "munmap"));
  // No munmap audit rule, no LSM unmap hook — the munmap benchmark's
  // all-empty Table-2 row depends on exactly this.
  EXPECT_EQ(kernel.trace().audit.size(), audit_before);
  EXPECT_EQ(kernel.trace().lsm.size(), lsm_before);
}

TEST(KernelThread, CloneThreadSharesProcessStateAndMarksLayers) {
  Kernel kernel = recording_kernel();
  kernel.stage_file("/home/user/shared.txt");
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  int fd = static_cast<int>(
      kernel.sys_open(pid, "/home/user/shared.txt", kO_RDONLY).ret);

  SyscallResult tid = kernel.sys_clone_thread(pid);
  ASSERT_TRUE(tid.ok());
  ASSERT_NE(tid.ret, pid);
  const Process* thread = kernel.process(static_cast<Pid>(tid.ret));
  ASSERT_NE(thread, nullptr);
  // CLONE_VM | CLONE_FILES: the thread sees the parent's fd table.
  EXPECT_EQ(thread->fds.count(fd), 1u);
  EXPECT_EQ(thread->comm, kernel.process(pid)->comm);

  const EventTrace& t = kernel.trace();
  bool saw_thread_flags = false;
  for (const LibcEvent& e : t.libc) {
    if (e.function == "clone" && !e.args.empty() &&
        e.args[0].find("CLONE_THREAD") != std::string::npos) {
      saw_thread_flags = true;
    }
  }
  EXPECT_TRUE(saw_thread_flags);
  bool saw_audit_thread = false;
  for (const AuditEvent& e : t.audit) {
    if (e.syscall == "clone" &&
        e.fields.count("flags") &&
        e.fields.at("flags").find("CLONE_THREAD") != std::string::npos) {
      saw_audit_thread = true;
    }
  }
  EXPECT_TRUE(saw_audit_thread);
  const LsmEvent* alloc = nullptr;
  for (const LsmEvent& e : t.lsm) {
    if (e.hook == "task_alloc" && e.fields.count("thread")) alloc = &e;
  }
  ASSERT_NE(alloc, nullptr);
  EXPECT_EQ(alloc->fields.at("thread"), "1");
}

TEST(KernelSocket, AcceptedConnectionIsItsOwnInode) {
  // The accept hook's derived-from relation (CamFlow) needs two distinct
  // socket inodes; a shared inode would collapse the provenance chain.
  Kernel kernel = recording_kernel();
  Pid pid = kernel.launch_program("/usr/bin/bench", "bench");
  kernel.start_recording();
  int fd = static_cast<int>(kernel.sys_socket(pid, 10, 1).ret);  // AF_INET6
  ASSERT_TRUE(kernel.sys_bind(pid, fd, "[::1]:443").ok());
  ASSERT_TRUE(kernel.sys_listen(pid, fd, 4).ok());
  int conn = static_cast<int>(kernel.sys_accept(pid, fd).ret);
  const Process* p = kernel.process(pid);
  ASSERT_NE(p, nullptr);
  EXPECT_NE(p->fds.at(fd).ino, p->fds.at(conn).ino);
  EXPECT_TRUE(p->fds.at(conn).is_socket);
  EXPECT_FALSE(p->fds.at(conn).listening);
  EXPECT_EQ(p->fds.at(conn).sock_addr, "[::1]:443");
  const LsmEvent* create = find_lsm(kernel.trace(), "socket_create");
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->fields.at("family"), "AF_INET6");
}

}  // namespace
}  // namespace provmark::os
