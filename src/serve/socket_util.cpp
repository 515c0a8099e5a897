#include "serve/socket_util.h"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/strings.h"

namespace provmark::serve {

namespace {

bool fill_addr(const std::string& path, sockaddr_un* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr->sun_path)) {
    errno = ENAMETOOLONG;
    return false;
  }
  std::strncpy(addr->sun_path, path.c_str(), sizeof(addr->sun_path) - 1);
  return true;
}

}  // namespace

int connect_unix(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr;
  if (!fill_addr(path, &addr)) {
    ::close(fd);
    errno = ENAMETOOLONG;
    return -1;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

int make_unix_listener(const std::string& path, std::string* error) {
  auto fail = [&](const std::string& why, int err) {
    if (error) *error = why;
    errno = err;
    return -1;
  };

  struct stat st{};
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      return fail(util::format("%s exists and is not a socket; refusing to "
                               "unlink it",
                               path.c_str()),
                  EEXIST);
    }
    // Connect-probe: a live daemon answers, a SIGKILL orphan refuses.
    int probe = connect_unix(path);
    if (probe >= 0) {
      ::close(probe);
      return fail(util::format("a live daemon already serves %s",
                               path.c_str()),
                  EADDRINUSE);
    }
    if (errno != ECONNREFUSED && errno != ENOENT) {
      return fail(util::format("cannot probe existing socket %s: %s",
                               path.c_str(), std::strerror(errno)),
                  errno);
    }
    ::unlink(path.c_str());
  }

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return fail(util::format("socket(): %s", std::strerror(errno)), errno);
  }
  sockaddr_un addr;
  if (!fill_addr(path, &addr)) {
    ::close(fd);
    return fail(util::format("socket path %s is too long", path.c_str()),
                ENAMETOOLONG);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    const int saved = errno;
    ::close(fd);
    return fail(util::format("cannot listen on %s: %s", path.c_str(),
                             std::strerror(saved)),
                saved);
  }
  if (error) error->clear();
  return fd;
}

bool next_line(std::string& inbuf, std::string& line) {
  std::size_t nl = inbuf.find('\n');
  if (nl == std::string::npos) return false;
  line = inbuf.substr(0, nl);
  inbuf.erase(0, nl + 1);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

}  // namespace provmark::serve
