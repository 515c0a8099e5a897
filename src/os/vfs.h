// A small virtual filesystem: inodes, a path hierarchy, hard and symbolic
// links, FIFOs and device nodes — enough to execute the 43 benchmarked
// syscalls of Table 1 with realistic success and failure behaviour.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory_resource>
#include <string>
#include <string_view>

namespace provmark::os {

enum class FileType { Regular, Directory, Symlink, Fifo, CharDevice, Socket };

/// POSIX-style errno subset used by the simulated kernel. Enumerators are
/// k-prefixed because <errno.h> defines the plain names as macros.
enum class Errno {
  None = 0,
  kNOENT = 2,
  kBADF = 9,
  kACCES = 13,
  kEXIST = 17,
  kNOTDIR = 20,
  kISDIR = 21,
  kINVAL = 22,
  kMFILE = 24,
  kSPIPE = 29,
  kPERM = 1,
  kSRCH = 3,
};

const char* errno_name(Errno e);

struct Inode {
  std::uint64_t ino = 0;
  FileType type = FileType::Regular;
  int mode = 0644;          ///< permission bits
  int owner_uid = 1000;
  int owner_gid = 1000;
  int nlink = 1;
  std::uint64_t size = 0;   ///< regular files and FIFOs: byte count
  std::string_view symlink_target;  ///< when type == Symlink; the Vfs owns it
};

/// Result of a VFS operation: either an inode number or an errno.
struct VfsResult {
  std::uint64_t ino = 0;
  Errno error = Errno::None;

  bool ok() const { return error == Errno::None; }
  static VfsResult success(std::uint64_t ino) { return {ino, Errno::None}; }
  static VfsResult fail(Errno e) { return {0, e}; }
};

/// The filesystem: a path -> inode mapping plus an inode table.
///
/// Paths are absolute, '/'-separated, already normalized by the caller
/// (the kernel resolves cwd-relative paths before calling in).
///
/// The tables draw from `memory` (the kernel passes its trial's region).
class Vfs {
 public:
  using Entries =
      std::pmr::map<std::pmr::string, std::uint64_t, std::less<>>;

  explicit Vfs(std::pmr::memory_resource* memory =
                   std::pmr::get_default_resource());

  /// Look up a path; follows symlinks (up to a depth limit) unless
  /// `follow_symlinks` is false (lstat semantics).
  VfsResult lookup(std::string_view path, bool follow_symlinks = true) const;

  /// Create a regular file (or other type) at `path`. Fails with EEXIST if
  /// the path exists, ENOENT if the parent directory is missing.
  VfsResult create(std::string_view path, FileType type, int mode, int uid,
                   int gid);

  /// Create a hard link `new_path` -> inode of `old_path`.
  VfsResult link(std::string_view old_path, std::string_view new_path);

  /// Create a symlink at `link_path` pointing to `target`.
  VfsResult symlink(std::string_view target, std::string_view link_path,
                    int uid, int gid);

  /// Remove a directory entry; drops the inode when nlink reaches zero.
  VfsResult unlink(std::string_view path);

  /// Rename `old_path` to `new_path` (replacing an existing target,
  /// subject to a permission check done by the kernel).
  VfsResult rename(std::string_view old_path, std::string_view new_path);

  /// Truncate a regular file to `length` bytes.
  VfsResult truncate(std::string_view path, std::uint64_t length);

  const Inode* inode(std::uint64_t ino) const;
  Inode* inode(std::uint64_t ino);

  /// All path entries (for tests and staging assertions).
  const Entries& entries() const { return entries_; }

  /// Does `uid` have write permission on the inode (owner/mode model;
  /// uid 0 bypasses)?
  static bool may_write(const Inode& inode, int uid, int gid);
  static bool may_read(const Inode& inode, int uid, int gid);

  /// Allocate an anonymous inode (pipes, sockets) with no path entry.
  std::uint64_t allocate_anonymous(FileType type);

  /// Parent directory of a normalized absolute path ("/a/b" -> "/a"): a
  /// prefix of `path`, or "/".
  static std::string_view parent_of(std::string_view path);

 private:
  VfsResult resolve(std::string_view path, bool follow_symlinks,
                    int depth) const;
  /// Drop one link of `ino`; the inode goes when its last link does.
  void drop_link(std::uint64_t ino);

  Entries entries_;
  std::pmr::map<std::uint64_t, Inode> inodes_;
  /// Each symlink's target, which its Inode::symlink_target views.
  std::pmr::map<std::uint64_t, std::pmr::string> symlink_targets_;
  std::uint64_t next_ino_;
};

}  // namespace provmark::os
