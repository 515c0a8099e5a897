#include "os/vfs.h"

#include "util/strings.h"

namespace provmark::os {

const char* errno_name(Errno e) {
  switch (e) {
    case Errno::None: return "OK";
    case Errno::kNOENT: return "ENOENT";
    case Errno::kBADF: return "EBADF";
    case Errno::kACCES: return "EACCES";
    case Errno::kEXIST: return "EEXIST";
    case Errno::kNOTDIR: return "ENOTDIR";
    case Errno::kISDIR: return "EISDIR";
    case Errno::kINVAL: return "EINVAL";
    case Errno::kMFILE: return "EMFILE";
    case Errno::kSPIPE: return "ESPIPE";
    case Errno::kPERM: return "EPERM";
    case Errno::kSRCH: return "ESRCH";
  }
  return "E?";
}

Vfs::Vfs(std::pmr::memory_resource* memory)
    : entries_(memory),
      inodes_(memory),
      symlink_targets_(memory),
      next_ino_(2) {
  // Root and the standard directory skeleton used by program boilerplate.
  for (const char* dir : {"/", "/etc", "/lib", "/usr", "/usr/bin", "/tmp",
                          "/home", "/home/user", "/dev"}) {
    Inode inode;
    inode.ino = next_ino_++;
    inode.type = FileType::Directory;
    inode.mode = 0755;
    inode.owner_uid = 0;
    inode.owner_gid = 0;
    inodes_[inode.ino] = inode;
    entries_.emplace(dir, inode.ino);
  }
  // /tmp and /home/user are world/user writable.
  inodes_[entries_.find("/tmp")->second].mode = 01777;
  Inode& home = inodes_[entries_.find("/home/user")->second];
  home.owner_uid = 1000;
  home.owner_gid = 1000;

  // Files every process start-up touches (the loader and libc), plus a
  // root-owned /etc/passwd for the failed-rename scenario.
  struct Seed {
    const char* path;
    int mode;
    int uid;
  };
  for (const Seed& seed : {Seed{"/lib/ld-linux.so", 0755, 0},
                           Seed{"/lib/libc.so.6", 0755, 0},
                           Seed{"/etc/passwd", 0644, 0},
                           Seed{"/etc/ld.so.cache", 0644, 0},
                           Seed{"/usr/bin/bench", 0755, 0},
                           Seed{"/usr/bin/true", 0755, 0}}) {
    Inode inode;
    inode.ino = next_ino_++;
    inode.type = FileType::Regular;
    inode.mode = seed.mode;
    inode.owner_uid = seed.uid;
    inode.owner_gid = seed.uid;
    inode.size = 4096;
    inodes_[inode.ino] = inode;
    entries_.emplace(seed.path, inode.ino);
  }
  // /dev/null as a character device.
  Inode null_inode;
  null_inode.ino = next_ino_++;
  null_inode.type = FileType::CharDevice;
  null_inode.mode = 0666;
  null_inode.owner_uid = 0;
  null_inode.owner_gid = 0;
  inodes_[null_inode.ino] = null_inode;
  entries_.emplace("/dev/null", null_inode.ino);
}

VfsResult Vfs::resolve(std::string_view path, bool follow_symlinks,
                       int depth) const {
  if (depth > 8) return VfsResult::fail(Errno::kINVAL);  // symlink loop
  auto it = entries_.find(path);
  if (it == entries_.end()) return VfsResult::fail(Errno::kNOENT);
  const Inode& inode = inodes_.at(it->second);
  if (inode.type == FileType::Symlink && follow_symlinks) {
    return resolve(inode.symlink_target, true, depth + 1);
  }
  return VfsResult::success(it->second);
}

VfsResult Vfs::lookup(std::string_view path, bool follow_symlinks) const {
  return resolve(path, follow_symlinks, 0);
}

VfsResult Vfs::create(std::string_view path, FileType type, int mode,
                      int uid, int gid) {
  if (entries_.contains(path)) return VfsResult::fail(Errno::kEXIST);
  VfsResult parent_result = lookup(parent_of(path));
  if (!parent_result.ok()) return VfsResult::fail(Errno::kNOENT);
  const Inode& parent_inode = inodes_.at(parent_result.ino);
  if (parent_inode.type != FileType::Directory) {
    return VfsResult::fail(Errno::kNOTDIR);
  }
  if (!may_write(parent_inode, uid, gid)) {
    return VfsResult::fail(Errno::kACCES);
  }
  Inode inode;
  inode.ino = next_ino_++;
  inode.type = type;
  inode.mode = mode;
  inode.owner_uid = uid;
  inode.owner_gid = gid;
  inodes_[inode.ino] = inode;
  entries_.emplace(path, inode.ino);
  return VfsResult::success(inode.ino);
}

VfsResult Vfs::link(std::string_view old_path, std::string_view new_path) {
  VfsResult old_result = lookup(old_path, /*follow_symlinks=*/false);
  if (!old_result.ok()) return old_result;
  if (entries_.contains(new_path)) return VfsResult::fail(Errno::kEXIST);
  Inode& inode = inodes_.at(old_result.ino);
  if (inode.type == FileType::Directory) {
    return VfsResult::fail(Errno::kPERM);
  }
  entries_.emplace(new_path, inode.ino);
  ++inode.nlink;
  return VfsResult::success(inode.ino);
}

VfsResult Vfs::symlink(std::string_view target, std::string_view link_path,
                       int uid, int gid) {
  if (entries_.contains(link_path)) return VfsResult::fail(Errno::kEXIST);
  VfsResult result =
      create(link_path, FileType::Symlink, 0777, uid, gid);
  if (!result.ok()) return result;
  inodes_.at(result.ino).symlink_target =
      symlink_targets_.emplace(result.ino, target).first->second;
  return result;
}

void Vfs::drop_link(std::uint64_t ino) {
  Inode& inode = inodes_.at(ino);
  if (--inode.nlink > 0) return;
  inodes_.erase(ino);
  symlink_targets_.erase(ino);
}

VfsResult Vfs::unlink(std::string_view path) {
  auto it = entries_.find(path);
  if (it == entries_.end()) return VfsResult::fail(Errno::kNOENT);
  Inode& inode = inodes_.at(it->second);
  if (inode.type == FileType::Directory) {
    return VfsResult::fail(Errno::kISDIR);
  }
  std::uint64_t ino = it->second;
  entries_.erase(it);
  drop_link(ino);
  return VfsResult::success(ino);
}

VfsResult Vfs::rename(std::string_view old_path, std::string_view new_path) {
  auto it = entries_.find(old_path);
  if (it == entries_.end()) return VfsResult::fail(Errno::kNOENT);
  std::uint64_t ino = it->second;
  // Replacing an existing target drops its inode reference.
  auto existing = entries_.find(new_path);
  if (existing != entries_.end()) {
    std::uint64_t target_ino = existing->second;
    entries_.erase(existing);
    drop_link(target_ino);
  }
  // A rename onto itself has just dropped its own entry.
  if (auto old = entries_.find(old_path); old != entries_.end()) {
    entries_.erase(old);
  }
  entries_.emplace(new_path, ino);
  return VfsResult::success(ino);
}

VfsResult Vfs::truncate(std::string_view path, std::uint64_t length) {
  VfsResult result = lookup(path);
  if (!result.ok()) return result;
  Inode& inode = inodes_.at(result.ino);
  if (inode.type == FileType::Directory) {
    return VfsResult::fail(Errno::kISDIR);
  }
  inode.size = length;
  return result;
}

const Inode* Vfs::inode(std::uint64_t ino) const {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : &it->second;
}

Inode* Vfs::inode(std::uint64_t ino) {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : &it->second;
}

bool Vfs::may_write(const Inode& inode, int uid, int gid) {
  if (uid == 0) return true;
  if (inode.owner_uid == uid) return (inode.mode & 0200) != 0;
  if (inode.owner_gid == gid) return (inode.mode & 0020) != 0;
  return (inode.mode & 0002) != 0;
}

bool Vfs::may_read(const Inode& inode, int uid, int gid) {
  if (uid == 0) return true;
  if (inode.owner_uid == uid) return (inode.mode & 0400) != 0;
  if (inode.owner_gid == gid) return (inode.mode & 0040) != 0;
  return (inode.mode & 0004) != 0;
}

std::uint64_t Vfs::allocate_anonymous(FileType type) {
  Inode inode;
  inode.ino = next_ino_++;
  inode.type = type;
  inode.mode = 0600;
  inodes_[inode.ino] = inode;
  return inode.ino;
}

std::string_view Vfs::parent_of(std::string_view path) {
  std::size_t pos = path.find_last_of('/');
  if (pos == std::string_view::npos || pos == 0) return "/";
  return path.substr(0, pos);
}

}  // namespace provmark::os
