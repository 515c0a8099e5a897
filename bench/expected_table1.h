// The Table 1 benchmark names: the 44 syscalls of the paper's four
// families, plus the 10 extension rows this suite adds (a thread clone,
// the network family and the memory family). Shared by the Table 1
// reproduction and the suite tests.
#pragma once

namespace provmark_bench {

inline constexpr const char* kTable1PaperNames[] = {
    "close",     "creat",     "dup",       "dup2",      "dup3",
    "link",      "linkat",    "symlink",   "symlinkat", "mknod",
    "mknodat",   "open",      "openat",    "read",      "pread",
    "rename",    "renameat",  "truncate",  "ftruncate", "unlink",
    "unlinkat",  "write",     "pwrite",    "clone",     "execve",
    "exit",      "fork",      "kill",      "vfork",     "chmod",
    "fchmod",    "fchmodat",  "chown",     "fchown",    "fchownat",
    "setgid",    "setregid",  "setresgid", "setuid",    "setreuid",
    "setresuid", "pipe",      "pipe2",     "tee"};

inline constexpr const char* kTable1ExtensionNames[] = {
    "thread", "socket",   "bind", "connect", "listen",
    "accept", "sendto",   "recvfrom", "mmap", "munmap"};

}  // namespace provmark_bench
