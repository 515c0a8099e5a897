// `provmark feed --feed-retries N` client-side retry tests
// (docs/cli.md). The retry envelope must be exactly the sweep
// supervisor's seeded exponential backoff — keyed by (seed, request
// index, attempt) so two runs of the same feed sleep the exact same
// schedule — and retries must only ever re-send on `shed`/`busy`;
// every other response stays final.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/supervise.h"
#include "serve/daemon.h"

namespace provmark::serve {
namespace {

namespace fs = std::filesystem;

TEST(FeedRetry, BackoffScheduleIsDeterministicAndMatchesTheSupervisor) {
  FeedOptions options;
  options.seed = 7;
  options.backoff_base_ms = 50;
  options.backoff_cap_ms = 2000;

  for (int request_index = 0; request_index < 4; ++request_index) {
    for (int attempt = 1; attempt <= 6; ++attempt) {
      const std::int64_t first =
          feed_backoff_ms(options.seed, request_index, attempt, options);
      // Bit-identical on recomputation: the schedule is a pure function
      // of (seed, request index, attempt).
      EXPECT_EQ(first, feed_backoff_ms(options.seed, request_index, attempt,
                                       options));
      // And it IS the supervisor envelope, not a reimplementation.
      EXPECT_EQ(first, core::backoff_ms(options.seed, request_index, attempt,
                                        options.backoff_base_ms,
                                        options.backoff_cap_ms));
      EXPECT_GE(first, 0);
      EXPECT_LE(first, options.backoff_cap_ms);
    }
  }
  // A different seed produces a different schedule somewhere — the
  // jitter is seeded, not constant.
  bool any_differs = false;
  for (int attempt = 1; attempt <= 6 && !any_differs; ++attempt) {
    any_differs = feed_backoff_ms(7, 0, attempt, options) !=
                  feed_backoff_ms(8, 0, attempt, options);
  }
  EXPECT_TRUE(any_differs);
}

/// Minimal scripted line server: accepts one connection, answers each
/// inbound line with the next canned response, records what it saw.
class LineServer {
 public:
  LineServer(std::string socket_path, std::vector<std::string> responses)
      : path_(std::move(socket_path)), responses_(std::move(responses)) {
    ::unlink(path_.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error(std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path_.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + path_);
    }
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 1) != 0) {
      throw std::runtime_error(std::strerror(errno));
    }
    thread_ = std::thread([this] { serve(); });
  }

  ~LineServer() {
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    ::unlink(path_.c_str());
  }

  std::vector<std::string> received() {
    std::lock_guard<std::mutex> lock(mu_);
    return received_;
  }

 private:
  void serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    std::string buf;
    std::size_t next_response = 0;
    char chunk[4096];
    while (next_response < responses_.size()) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t nl;
      while (next_response < responses_.size() &&
             (nl = buf.find('\n')) != std::string::npos) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          received_.push_back(buf.substr(0, nl));
        }
        buf.erase(0, nl + 1);
        const std::string out = responses_[next_response++] + "\n";
        (void)::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      }
    }
    ::close(fd);
  }

  std::string path_;
  std::vector<std::string> responses_;
  int listen_fd_ = -1;
  std::thread thread_;
  std::mutex mu_;
  std::vector<std::string> received_;
};

std::string test_socket(const std::string& tag) {
  return (fs::temp_directory_path() /
          ("provmark_feed_retry_" + tag + "_" + std::to_string(::getpid()) +
           ".sock"))
      .string();
}

TEST(FeedRetry, RetriesResendOnBusyAndPrintOnlyTheFinalResponse) {
  const std::string socket_path = test_socket("busy");
  LineServer server(socket_path, {"busy", "busy", "ok 1"});

  FeedOptions options;
  options.retries = 2;
  options.backoff_base_ms = 1;
  options.backoff_cap_ms = 4;
  std::istringstream in("event s fact normal edge(a,b).\n");
  std::ostringstream out;
  EXPECT_EQ(run_feed(socket_path, in, out, options), 0);
  EXPECT_EQ(out.str(), "ok 1\n");

  // The client re-sent the same request line, attempt by attempt.
  const std::vector<std::string> seen = server.received();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], "event s fact normal edge(a,b).");
  EXPECT_EQ(seen[1], seen[0]);
  EXPECT_EQ(seen[2], seen[0]);
}

TEST(FeedRetry, ShedAlsoRetriesButTheBudgetIsFinite) {
  const std::string socket_path = test_socket("shed");
  LineServer server(socket_path, {"shed", "shed"});

  FeedOptions options;
  options.retries = 1;
  options.backoff_base_ms = 1;
  options.backoff_cap_ms = 4;
  std::istringstream in("event s fact normal edge(a,b).\n");
  std::ostringstream out;
  // 1 try + 1 retry, both shed: the final shed is printed and the exit
  // code is the historical refusal code.
  EXPECT_EQ(run_feed(socket_path, in, out, options), 3);
  EXPECT_EQ(out.str(), "shed\n");
  EXPECT_EQ(server.received().size(), 2u);
}

TEST(FeedRetry, ZeroRetriesIsTheHistoricalClient) {
  const std::string socket_path = test_socket("zero");
  LineServer server(socket_path, {"busy"});

  std::istringstream in("event s fact normal edge(a,b).\n");
  std::ostringstream out;
  // The 3-arg overload (and the default FeedOptions) never retry:
  // every shed/busy is final, exactly the pre-retry behaviour.
  EXPECT_EQ(run_feed(socket_path, in, out), 3);
  EXPECT_EQ(out.str(), "busy\n");
  EXPECT_EQ(server.received().size(), 1u);
}

TEST(FeedRetry, ErrorsAreNeverRetried) {
  const std::string socket_path = test_socket("error");
  LineServer server(socket_path, {"error boom"});

  FeedOptions options;
  options.retries = 5;
  options.backoff_base_ms = 1;
  std::istringstream in("event s fact normal edge(a,b).\n");
  std::ostringstream out;
  EXPECT_EQ(run_feed(socket_path, in, out, options), 3);
  EXPECT_EQ(out.str(), "error boom\n");
  // One send only: errors are final, retries are reserved for
  // load-shedding responses.
  EXPECT_EQ(server.received().size(), 1u);
}

/// Scripted server for connection-failure tests: serves a sequence of
/// connections, each with its own canned response script; when a
/// script runs out the connection is closed (mid-stream loss) and the
/// next accept starts the next script.
class MultiServer {
 public:
  MultiServer(std::string socket_path,
              std::vector<std::vector<std::string>> scripts)
      : path_(std::move(socket_path)), scripts_(std::move(scripts)) {
    ::unlink(path_.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error(std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path_.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + path_);
    }
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 4) != 0) {
      throw std::runtime_error(std::strerror(errno));
    }
    thread_ = std::thread([this] { serve(); });
  }

  ~MultiServer() {
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    ::unlink(path_.c_str());
  }

  std::vector<std::string> received() {
    std::lock_guard<std::mutex> lock(mu_);
    return received_;
  }

 private:
  void serve() {
    for (const std::vector<std::string>& script : scripts_) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::string buf;
      std::size_t next_response = 0;
      bool open = true;
      char chunk[4096];
      while (open) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          break;
        }
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl;
        while (open && (nl = buf.find('\n')) != std::string::npos) {
          {
            std::lock_guard<std::mutex> lock(mu_);
            received_.push_back(buf.substr(0, nl));
          }
          buf.erase(0, nl + 1);
          if (next_response < script.size()) {
            const std::string out = script[next_response++] + "\n";
            (void)::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
          } else {
            // The request past the script is READ but never acked —
            // the daemon died with it in flight. Drop the connection,
            // exactly what a daemon restart looks like.
            open = false;
          }
        }
      }
      ::close(fd);
    }
  }

  std::string path_;
  std::vector<std::vector<std::string>> scripts_;
  int listen_fd_ = -1;
  std::thread thread_;
  std::mutex mu_;
  std::vector<std::string> received_;
};

TEST(FeedRetry, ConnectRefusedIsRetriedUntilTheDaemonAppears) {
  const std::string socket_path = test_socket("refused");
  ::unlink(socket_path.c_str());

  FeedOptions options;
  options.retries = 20;
  options.backoff_base_ms = 5;
  options.backoff_cap_ms = 20;

  int rc = -1;
  std::string printed;
  std::thread client([&] {
    std::istringstream in("event s fact normal edge(a,b).\n");
    std::ostringstream out;
    rc = run_feed(socket_path, in, out, options);
    printed = out.str();
  });
  // The daemon comes up only after the client has already burned a few
  // connect attempts — the restart-window shape.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  {
    LineServer server(socket_path, {"ok 1"});
    client.join();
  }
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(printed, "ok 1\n");
}

TEST(FeedRetry, ConnectionLostMidStreamReconnectsAndResends) {
  const std::string socket_path = test_socket("midstream");
  // Connection 1 acks one event then dies; connection 2 finishes the
  // stream. The client must re-send the in-flight request verbatim.
  MultiServer server(socket_path, {{"ok 1"}, {"ok 2"}});

  FeedOptions options;
  options.retries = 5;
  options.backoff_base_ms = 1;
  options.backoff_cap_ms = 4;
  std::istringstream in(
      "event s fact normal edge(a,b).\n"
      "event s fact normal edge(b,c).\n");
  std::ostringstream out;
  EXPECT_EQ(run_feed(socket_path, in, out, options), 0);
  EXPECT_EQ(out.str(), "ok 1\nok 2\n");

  const std::vector<std::string> seen = server.received();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], "event s fact normal edge(a,b).");
  // The lost request was re-sent byte-identically on the new
  // connection (at-least-once delivery, docs/serve.md).
  EXPECT_EQ(seen[1], "event s fact normal edge(b,c).");
  EXPECT_EQ(seen[2], seen[1]);
}

TEST(FeedRetry, ExhaustedConnectionBudgetIsAConnectionFailure) {
  const std::string socket_path = test_socket("nobody");
  ::unlink(socket_path.c_str());

  FeedOptions options;
  options.retries = 2;
  options.backoff_base_ms = 1;
  options.backoff_cap_ms = 2;
  std::istringstream in("event s fact normal edge(a,b).\n");
  std::ostringstream out;
  // Nothing ever listens: the per-request budget runs out and the
  // historical connection-failure exit code comes back.
  EXPECT_EQ(run_feed(socket_path, in, out, options), 1);
  EXPECT_EQ(out.str(), "");
}

}  // namespace
}  // namespace provmark::serve
