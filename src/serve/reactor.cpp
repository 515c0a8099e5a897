#include "serve/reactor.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <system_error>
#include <vector>

#include "serve/protocol.h"
#include "util/strings.h"

namespace provmark::serve {

namespace {

// Process-wide, like the signal dispositions they stand for: the live
// reactor's self-pipe and the SIGTERM/SIGINT actions it replaced.
volatile std::sig_atomic_t g_signal_pipe_write = -1;
struct sigaction g_saved_actions[2];

void on_signal(int) {
  // async-signal-safe: one byte wakes the poll loop.
  const int saved = errno;
  const char byte = 1;
  if (g_signal_pipe_write >= 0) {
    [[maybe_unused]] ssize_t n = ::write(g_signal_pipe_write, &byte, 1);
  }
  errno = saved;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Write as much of `outbuf` as the socket takes now. False when the
/// peer is gone; EAGAIN keeps the rest queued.
bool write_some(int fd, std::string& outbuf) {
  while (!outbuf.empty()) {
    const ssize_t n = ::send(fd, outbuf.data(), outbuf.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    outbuf.erase(0, static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

Reactor::Reactor() {
  if (::pipe2(signal_pipe_, O_NONBLOCK) != 0) {
    throw std::system_error(errno, std::generic_category(),
                            "reactor signal pipe");
  }
  g_signal_pipe_write = signal_pipe_[1];
  struct sigaction action{};
  action.sa_handler = on_signal;
  ::sigaction(SIGTERM, &action, &g_saved_actions[0]);
  ::sigaction(SIGINT, &action, &g_saved_actions[1]);
  ::signal(SIGPIPE, SIG_IGN);
}

Reactor::~Reactor() {
  shutdown();
  if (g_signal_pipe_write == signal_pipe_[1]) {
    ::sigaction(SIGTERM, &g_saved_actions[0], nullptr);
    ::sigaction(SIGINT, &g_saved_actions[1], nullptr);
    g_signal_pipe_write = -1;
  }
  ::close(signal_pipe_[0]);
  ::close(signal_pipe_[1]);
}

void Reactor::listen(int fd, const Handler* handler) {
  set_nonblocking(fd);
  listener_ = fd;
  accept_handler_ = handler;
}

Reactor::Id Reactor::add(int fd, const Handler* handler) {
  set_nonblocking(fd);
  Conn& conn = conns_[next_id_];
  conn.fd = fd;
  conn.handler = handler;
  return next_id_++;
}

Reactor::Id Reactor::watch(int fd, std::function<bool(int)> on_ready) {
  set_nonblocking(fd);
  Conn& conn = conns_[next_id_];
  conn.fd = fd;
  conn.on_ready = std::move(on_ready);
  return next_id_++;
}

void Reactor::set_handler(Id id, const Handler* handler) {
  if (auto it = conns_.find(id); it != conns_.end()) {
    it->second.handler = handler;
  }
}

void Reactor::enqueue(Conn& conn, std::string text) {
  if (conn.slots.empty()) {
    conn.outbuf += text;
    return;
  }
  conn.slot_bytes += text.size();
  conn.slots.push_back(Pending{conn.next_slot++, true, std::move(text)});
}

void Reactor::write(Id id, std::string_view bytes) {
  auto it = conns_.find(id);
  if (it != conns_.end() && !bytes.empty()) {
    enqueue(it->second, std::string(bytes));
  }
}

Reactor::Slot Reactor::reserve(Id id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return 0;
  Conn& conn = it->second;
  conn.slots.push_back(Pending{conn.next_slot, false, {}});
  return conn.next_slot++;
}

void Reactor::fill(Id id, Slot slot, std::string_view line) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  // Slots are appended in increasing order, so the deque is sorted.
  auto pending = std::lower_bound(
      conn.slots.begin(), conn.slots.end(), slot,
      [](const Pending& p, Slot s) { return p.slot < s; });
  if (pending == conn.slots.end() || pending->slot != slot ||
      pending->ready) {
    return;
  }
  pending->text.assign(line);
  pending->text += '\n';
  pending->ready = true;
  conn.slot_bytes += pending->text.size();
  while (!conn.slots.empty() && conn.slots.front().ready) {
    conn.outbuf += conn.slots.front().text;
    conn.slot_bytes -= conn.slots.front().text.size();
    conn.slots.pop_front();
  }
}

void Reactor::hold(Id id) {
  if (auto it = conns_.find(id); it != conns_.end()) it->second.held = true;
}

void Reactor::close(Id id) {
  if (auto it = conns_.find(id); it != conns_.end()) {
    ::close(it->second.fd);
    conns_.erase(it);
  }
}

void Reactor::lose(Id id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  const Handler* handler = it->second.handler;
  ::close(it->second.fd);
  conns_.erase(it);
  if (handler && handler->on_close) handler->on_close(id);
}

void Reactor::accept_all() {
  for (;;) {
    const int fd = ::accept4(listener_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: backlog empty
    }
    Conn& conn = conns_[next_id_++];
    conn.fd = fd;
    conn.handler = accept_handler_;
  }
}

void Reactor::read_lines(Id id) {
  Conn* conn = &conns_.at(id);
  char buffer[16384];
  ssize_t n;
  do {
    n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK) lose(id);
    return;
  }
  if (n == 0) conn->draining = true;  // EOF: errno is stale, not consulted
  if (n == 0 || conn->held) return;   // a held link's bytes vanish
  conn->inbuf.append(buffer, static_cast<std::size_t>(n));

  // Lines are consumed by offset and erased once, so a read carrying
  // thousands of short requests costs one memmove, not one per line.
  // The handler may close its own connection: re-find it per line.
  std::size_t start = 0;
  std::string line;
  for (;;) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    conn = &it->second;
    const std::size_t nl =
        conn->held ? std::string::npos : conn->inbuf.find('\n', start);
    if (nl == std::string::npos) break;
    const std::size_t end =
        nl > start && conn->inbuf[nl - 1] == '\r' ? nl - 1 : nl;
    line.assign(conn->inbuf, start, end - start);
    start = nl + 1;
    if (!line.empty()) conn->handler->on_line(id, line);
  }
  conn->inbuf.erase(0, std::min(start, conn->inbuf.size()));
  const std::size_t cap = conn->handler->max_line;
  if (cap > 0 && conn->inbuf.size() > cap) {
    conn->inbuf = std::string();
    conn->draining = true;
    enqueue(*conn,
            format_response(Response{
                Status::TooLarge, 0,
                util::format("request line exceeds %zu bytes", cap)}) +
                '\n');
  }
}

void Reactor::flush_all() {
  std::vector<Id> failed;
  for (auto& [id, conn] : conns_) {
    if (!conn.held && !write_some(conn.fd, conn.outbuf)) failed.push_back(id);
  }
  for (Id id : failed) lose(id);
}

void Reactor::reap_drained() {
  std::vector<Id> done;
  for (const auto& [id, conn] : conns_) {
    if (conn.draining &&
        (conn.held || (conn.outbuf.empty() && conn.slots.empty()))) {
      done.push_back(id);
    }
  }
  for (Id id : done) lose(id);
}

void Reactor::run(const std::function<int()>& tick) {
  std::vector<pollfd> fds;
  std::vector<Id> owners;  ///< per pollfd after the self-pipe and listener
  for (;;) {
    const int timeout = tick ? tick() : -1;
    flush_all();
    reap_drained();

    fds.clear();
    owners.clear();
    fds.push_back({signal_pipe_[0], POLLIN, 0});
    fds.push_back({listener_, POLLIN, 0});  // poll skips a negative fd
    for (const auto& [id, conn] : conns_) {
      const bool paused =
          conn.on_ready == nullptr && conn.handler->max_line > 0 &&
          conn.outbuf.size() + conn.slot_bytes > kMaxPendingOutput;
      short events = 0;
      if (!conn.draining && !paused) events |= POLLIN;
      if (!conn.held && !conn.outbuf.empty()) events |= POLLOUT;
      // A draining connection waiting on unfilled slots is left out:
      // polled, its hang-up would wake the loop on every iteration.
      if (events == 0) continue;
      fds.push_back({conn.fd, events, 0});
      owners.push_back(id);
    }

    if (::poll(fds.data(), fds.size(), timeout) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[0].revents != 0) {
      char drain[64];
      while (::read(signal_pipe_[0], drain, sizeof(drain)) > 0) {
      }
      return;
    }
    if (fds[1].revents & POLLIN) accept_all();

    for (std::size_t i = 2; i < fds.size(); ++i) {
      const short revents = fds[i].revents;
      if (revents == 0) continue;
      const Id id = owners[i - 2];
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      if (it->second.on_ready) {
        // Copied: the callback may replace or close watches.
        const std::function<bool(int)> on_ready = it->second.on_ready;
        if (!on_ready(it->second.fd)) close(id);
      } else if ((revents & (POLLERR | POLLNVAL)) ||
          ((revents & POLLOUT) &&
           !write_some(it->second.fd, it->second.outbuf))) {
        lose(id);
      } else if (revents & POLLIN) {
        read_lines(id);
      } else if (revents & POLLHUP) {
        lose(id);
      }
    }
  }
}

void Reactor::shutdown() {
  // Callback-free: the handlers' owners may be gone by the destructor.
  for (auto& [id, conn] : conns_) {
    if (!conn.held) write_some(conn.fd, conn.outbuf);
    ::close(conn.fd);
  }
  if (listener_ >= 0) ::close(listener_);
  conns_.clear();
  listener_ = -1;
}

void Reactor::close_inherited() {
  for (auto& [id, conn] : conns_) conn.held = true;  // write nothing
  shutdown();
  ::close(signal_pipe_[0]);
  ::close(signal_pipe_[1]);
  signal_pipe_[0] = signal_pipe_[1] = -1;
  g_signal_pipe_write = -1;
}

}  // namespace provmark::serve
