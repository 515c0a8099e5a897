// serve::Reactor tests (src/serve/reactor.h). Over socketpairs: response
// slots flush in request order, stale ids are no-ops, lines reassemble
// across reads, the line cap answers `too-large` and closes, a
// connection with too much unwritten output stops being read, and a
// self-pipe byte ends run(). Against real forked `run_daemon` and
// `run_cluster` processes: a client that floods requests and never
// reads its replies must not stall other clients or SIGTERM, and an
// unterminated line past the cap is refused.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "serve/reactor.h"

namespace provmark::serve {
namespace {

using namespace harness;
using Clock = std::chrono::steady_clock;

/// A socketpair: `ours` goes to the reactor, `peer` is the test's end
/// (non-blocking, so reads never hang the test).
struct Pair {
  int ours = -1;
  int peer = -1;
  Pair() {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) std::abort();
    ours = sv[0];
    peer = sv[1];
    ::fcntl(peer, F_SETFL, ::fcntl(peer, F_GETFL) | O_NONBLOCK);
  }
  ~Pair() {
    if (peer >= 0) ::close(peer);
  }
};

void write_all(int fd, const std::string& data) {
  ASSERT_EQ(::send(fd, data.data(), data.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(data.size()));
}

/// Everything readable on `fd` right now; sets `*eof` on end of stream.
std::string drain(int fd, bool* eof = nullptr) {
  std::string out;
  char buffer[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      out.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0 && eof) *eof = true;
    return out;
  }
}

/// Run the reactor until `done()` holds at the top of an iteration
/// (checked after the previous iteration's I/O) or 2 s pass. The
/// iteration that sees done() still writes queued output before run()
/// returns.
bool run_until(Reactor& reactor, const std::function<bool()>& done) {
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  bool held = false;
  reactor.run([&] {
    held = done();
    if (held || Clock::now() >= deadline) ::raise(SIGTERM);
    return 5;
  });
  return held;
}

/// One more iteration: write whatever is ready, read whatever arrived.
void spin(Reactor& reactor, int iterations = 3) {
  int n = 0;
  run_until(reactor, [&] { return ++n > iterations; });
}

TEST(Reactor, SlotsFilledOutOfOrderAreWrittenInRequestOrder) {
  Pair pair;
  Reactor reactor;
  std::vector<Reactor::Slot> slots;
  Reactor::Handler handler;
  handler.on_line = [&](Reactor::Id id, const std::string& line) {
    if (line == "b") {
      reactor.write(id, "B\n");  // answered at once, queued behind "a"
    } else {
      slots.push_back(reactor.reserve(id));
    }
  };
  const Reactor::Id id = reactor.add(pair.ours, &handler);

  write_all(pair.peer, "a\nb\nc\n");
  ASSERT_TRUE(run_until(reactor, [&] { return slots.size() == 2; }));
  reactor.fill(id, slots[1], "C");
  spin(reactor);
  EXPECT_EQ(drain(pair.peer), "");  // "a" still owes its answer

  reactor.fill(id, slots[0], "A");
  reactor.fill(id, slots[0], "again");  // a filled slot stays filled
  spin(reactor);
  EXPECT_EQ(drain(pair.peer), "A\nB\nC\n");
}

TEST(Reactor, StaleIdsAreNoOps) {
  Pair first;
  Pair second;
  Reactor reactor;
  Reactor::Handler handler;
  handler.on_line = [](Reactor::Id, const std::string&) {};
  const Reactor::Id old_id = reactor.add(first.ours, &handler);
  const Reactor::Slot slot = reactor.reserve(old_id);
  ASSERT_NE(slot, 0u);
  reactor.close(old_id);

  // The new connection may reuse the fd number, never the id.
  const Reactor::Id new_id = reactor.add(second.ours, &handler);
  EXPECT_NE(new_id, old_id);
  reactor.fill(old_id, slot, "late");
  reactor.write(old_id, "late\n");
  EXPECT_EQ(reactor.reserve(old_id), 0u);
  reactor.write(new_id, "fresh\n");
  spin(reactor);
  EXPECT_EQ(drain(second.peer), "fresh\n");
  bool eof = false;
  EXPECT_EQ(drain(first.peer, &eof), "");
  EXPECT_TRUE(eof);
}

TEST(Reactor, PeerEofWaitsForPendingSlotsThenCloses) {
  Pair pair;
  Reactor reactor;
  Reactor::Slot slot = 0;
  bool closed = false;
  Reactor::Handler handler;
  handler.on_line = [&](Reactor::Id id, const std::string&) {
    slot = reactor.reserve(id);
  };
  handler.on_close = [&](Reactor::Id) { closed = true; };
  const Reactor::Id id = reactor.add(pair.ours, &handler);

  write_all(pair.peer, "q\n");
  ::shutdown(pair.peer, SHUT_WR);
  ASSERT_TRUE(run_until(reactor, [&] { return slot != 0; }));
  spin(reactor);
  EXPECT_FALSE(closed);  // the answer is still owed
  reactor.fill(id, slot, "answer");
  ASSERT_TRUE(run_until(reactor, [&] { return closed; }));
  bool eof = false;
  EXPECT_EQ(drain(pair.peer, &eof), "answer\n");
  EXPECT_TRUE(eof);
  reactor.fill(id, slot, "after close");  // no-op
}

TEST(Reactor, LineSplitAcrossReadsIsReassembledAndCrLfStripped) {
  Pair pair;
  Reactor reactor;
  std::vector<std::string> lines;
  Reactor::Handler handler;
  handler.on_line = [&](Reactor::Id, const std::string& line) {
    lines.push_back(line);
  };
  reactor.add(pair.ours, &handler);

  write_all(pair.peer, "hel");
  spin(reactor);
  EXPECT_TRUE(lines.empty());
  write_all(pair.peer, "lo\r\nwor");
  ASSERT_TRUE(run_until(reactor, [&] { return lines.size() == 1; }));
  write_all(pair.peer, "ld\n\n\r\nlast\n");
  ASSERT_TRUE(run_until(reactor, [&] { return lines.size() == 3; }));
  EXPECT_EQ(lines, (std::vector<std::string>{"hello", "world", "last"}));
}

TEST(Reactor, UnterminatedLinePastTheCapIsRefusedThenClosed) {
  Pair pair;
  Reactor reactor;
  int lines = 0;
  bool closed = false;
  Reactor::Handler handler;
  handler.max_line = 16;
  handler.on_line = [&](Reactor::Id, const std::string&) { ++lines; };
  handler.on_close = [&](Reactor::Id) { closed = true; };
  reactor.add(pair.ours, &handler);

  write_all(pair.peer, "ok\n" + std::string(40, 'x'));
  ASSERT_TRUE(run_until(reactor, [&] { return closed; }));
  EXPECT_EQ(lines, 1);
  bool eof = false;
  const std::string out = drain(pair.peer, &eof);
  EXPECT_EQ(out.rfind("too-large ", 0), 0u) << out;
  EXPECT_EQ(out.back(), '\n');
  EXPECT_TRUE(eof);
}

TEST(Reactor, TooMuchUnwrittenOutputPausesReadingUntilItDrains) {
  Pair pair;
  Reactor reactor;
  int handled = 0;
  Reactor::Handler handler;
  handler.max_line = 64;
  handler.on_line = [&](Reactor::Id id, const std::string&) {
    ++handled;
    reactor.write(id, std::string(2 * Reactor::kMaxPendingOutput, 'r'));
  };
  reactor.add(pair.ours, &handler);

  write_all(pair.peer, "one\n");
  ASSERT_TRUE(run_until(reactor, [&] { return handled == 1; }));
  write_all(pair.peer, "two\n");
  spin(reactor, 10);
  EXPECT_EQ(handled, 1);  // paused: the peer has not read "one"'s reply

  std::size_t received = 0;
  ASSERT_TRUE(run_until(reactor, [&] {
    received += drain(pair.peer).size();
    return handled == 2;
  }));
  EXPECT_GE(received, Reactor::kMaxPendingOutput);
}

TEST(Reactor, SelfPipeByteEndsRun) {
  Reactor reactor;
  ::raise(SIGTERM);  // the reactor's handler writes the self-pipe byte
  int ticks = 0;
  reactor.run([&] {
    ++ticks;
    return 1000;
  });
  EXPECT_EQ(ticks, 1);
}

// ---------------------------------------------------------------------------
// Real daemons and routers

/// Connect, send `request`, and return the first response line, or ""
/// when none arrives within `budget_ms`. `request` may lack the
/// newline; `*eof_after` reports whether the server then closed.
std::string ask(const std::string& socket, const std::string& request,
                int budget_ms, bool* eof_after = nullptr) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(budget_ms);
  const int fd = connect_unix(socket);
  if (fd < 0) return "";
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  std::size_t sent = 0;
  std::string buffer;
  std::string line;
  bool answered = false;
  while (Clock::now() < deadline) {
    if (sent < request.size()) {
      const ssize_t n = ::send(fd, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    pollfd p{fd, POLLIN, 0};
    ::poll(&p, 1, 10);
    bool eof = false;
    buffer += drain(fd, &eof);
    if (!answered) answered = next_line(buffer, line);
    if (answered && (!eof_after || eof)) {
      if (eof_after) *eof_after = eof;
      break;
    }
    if (eof) break;
  }
  ::close(fd);
  return answered ? line : "";
}

/// A client that writes `lines` pings (for up to 3 s) and never reads a
/// reply. Returns its still-open fd.
int flood(const std::string& socket, int lines) {
  const int fd = connect_unix(socket);
  if (fd < 0) return -1;
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  std::string data;
  for (int i = 0; i < lines; ++i) data += "ping\n";
  std::size_t sent = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(3);
  while (sent < data.size() && Clock::now() < deadline) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EAGAIN) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 20);
    } else {
      break;
    }
  }
  return fd;
}

/// Which front end a case forks, and how.
struct Server {
  const char* name;
  std::function<int(const fs::path& dir, const std::string& socket,
                    std::size_t max_payload)>
      run;
};

void PrintTo(const Server& server, std::ostream* os) { *os << server.name; }

int serve_daemon(const fs::path& dir, const std::string& socket,
                 std::size_t max_payload) {
  DaemonOptions options;
  options.service.root = dir / "root";
  options.service.workers = 1;
  options.service.max_payload_bytes = max_payload;
  options.socket_path = socket;
  return run_daemon(options);
}

int serve_cluster(const fs::path& dir, const std::string& socket,
                  std::size_t max_payload) {
  ClusterOptions options;
  options.root = dir / "root";
  options.members = 1;
  options.service.workers = 1;
  options.service.max_payload_bytes = max_payload;
  options.socket_path = socket;
  return run_cluster(options);
}

class ServeFrontEnd : public ::testing::TestWithParam<Server> {
 protected:
  void start(std::size_t max_payload = std::size_t{1} << 20) {
    socket_ = (dir_.path / "s.sock").string();
    server_.emplace(fork_child(
        [&] { return GetParam().run(dir_.path, socket_, max_payload); }));
    ASSERT_TRUE(server_->running());
    const auto deadline = Clock::now() + std::chrono::seconds(15);
    while (ask(socket_, "ping\n", 200) != "result pong") {
      ASSERT_LT(Clock::now(), deadline) << "front end never answered ping";
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  TempDir dir_{std::string("reactor_") + GetParam().name};
  std::string socket_;
  std::optional<Child> server_;
};

TEST_P(ServeFrontEnd, NonReadingClientStallsNeitherOthersNorShutdown) {
  start();
  const int flooder = flood(socket_, 60000);
  ASSERT_GE(flooder, 0);
  EXPECT_EQ(ask(socket_, "ping\n", 1000), "result pong");
  EXPECT_EQ(server_->terminate(), 0);
  ::close(flooder);
}

TEST_P(ServeFrontEnd, UnterminatedLinePastTheCapIsRefused) {
  start(1024);  // cap: 2 * 1024 + 4096 bytes
  bool closed = false;
  const std::string line =
      ask(socket_, std::string(2 * 1024 + 4096 + 100, 'x'), 5000, &closed);
  EXPECT_EQ(line.rfind("too-large ", 0), 0u) << line;
  EXPECT_TRUE(closed);
  EXPECT_EQ(ask(socket_, "ping\n", 1000), "result pong");
}

INSTANTIATE_TEST_SUITE_P(
    DaemonAndRouter, ServeFrontEnd,
    ::testing::Values(Server{"daemon", serve_daemon},
                      Server{"cluster", serve_cluster}),
    [](const ::testing::TestParamInfo<Server>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace provmark::serve
