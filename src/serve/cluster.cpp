#include "serve/cluster.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "core/supervise.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/reactor.h"
#include "serve/socket_util.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// A request forwarded to a member, awaiting its in-order response.
struct Outstanding {
  Reactor::Id conn = 0;
  Reactor::Slot slot = 0;
};

/// The router's side of one member: proxy connection, heartbeat-pipe
/// watch, and the FIFO of in-flight requests (the member answers
/// per-connection in request order, so front() always owns the next
/// response line).
struct MemberLink {
  Reactor::Id conn = 0;
  Reactor::Id beats = 0;
  Reactor::Handler handler;
  std::deque<Outstanding> outstanding;
  Clock::time_point next_connect{};
  std::uint64_t routed = 0;
};

/// DaemonHost over forked run_daemon children. The fork happens in the
/// single-threaded router, so the child is safe to run the full
/// Service machinery; it re-arms the fault spec with its own
/// (member, incarnation) coordinates and closes every inherited router
/// descriptor so connection lifetimes stay accurate.
class RouterHost final : public core::DaemonHost {
 public:
  RouterHost(const ClusterOptions& options, Reactor& reactor)
      : options_(options), reactor_(reactor) {}

  /// Takes the read end of a new incarnation's heartbeat pipe.
  std::function<void(int member, int fd)> on_spawned;

  std::uint64_t spawn_member(int member, int incarnation) override {
    // Non-blocking: a member whose router stops reading skips beats
    // instead of stalling in write().
    int hb[2];
    if (::pipe2(hb, O_NONBLOCK) != 0) return 0;
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(hb[0]);
      ::close(hb[1]);
      return 0;
    }
    if (pid == 0) {
      ::close(hb[0]);
      reactor_.close_inherited();
      ::signal(SIGTERM, SIG_DFL);
      ::signal(SIGINT, SIG_DFL);
      ::signal(SIGPIPE, SIG_IGN);
      if (!options_.fault_spec.empty()) {
        try {
          util::fault::arm(
              util::fault::parse_fault_spec(options_.fault_spec), member,
              incarnation);
        } catch (...) {
          ::_exit(2);
        }
      } else {
        util::fault::disarm();
      }
      DaemonOptions daemon;
      daemon.service = options_.service;
      daemon.service.root = member_root(options_.root, member);
      daemon.socket_path = member_socket_path(options_.root, member);
      daemon.cluster_member = member;
      daemon.heartbeat_fd = hb[1];
      daemon.member_heartbeat_ms = options_.heartbeat_ms;
      int code = 1;
      try {
        code = run_daemon(daemon);
      } catch (...) {
        code = 1;
      }
      ::_exit(code);
    }
    ::close(hb[1]);
    on_spawned(member, hb[0]);
    note(util::format("member %d incarnation %d spawned (pid %d)", member,
                      incarnation, static_cast<int>(pid)));
    return static_cast<std::uint64_t>(pid);
  }

  void kill_member(std::uint64_t token) override {
    ::kill(static_cast<pid_t>(token), SIGKILL);
  }

  std::int64_t now_ms() override {
    static const auto t0 = Clock::now();
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               Clock::now() - t0)
        .count();
  }

  void note(const std::string& message) override {
    std::fprintf(stderr, "cluster: %s\n", message.c_str());
    std::fflush(stderr);
  }

 private:
  const ClusterOptions& options_;
  Reactor& reactor_;
};

}  // namespace

int member_for(const std::string& session, int members) {
  if (members <= 1) return 0;
  return static_cast<int>(util::stable_hash(session) %
                          static_cast<std::uint64_t>(members));
}

std::filesystem::path member_root(const std::filesystem::path& root,
                                  int member) {
  return root / ("member-" + std::to_string(member));
}

std::string member_socket_path(const std::filesystem::path& root,
                               int member) {
  return (root / ("member-" + std::to_string(member) + ".sock")).string();
}

std::string RouterStats::to_text() const {
  std::string text;
  text += "cluster_role=router\n";
  text += util::format("cluster_members=%d\n", cluster_members);
  text += util::format("members_up=%d\n", members_up);
  text += util::format("member_restarts=%lld\n",
                       static_cast<long long>(member_restarts));
  text += util::format("hung_kills=%lld\n",
                       static_cast<long long>(hung_kills));
  text += util::format("routed_events=%llu\n",
                       static_cast<unsigned long long>(routed_events));
  text += util::format("routed_queries=%llu\n",
                       static_cast<unsigned long long>(routed_queries));
  text += util::format("proxied_responses=%llu\n",
                       static_cast<unsigned long long>(proxied_responses));
  text += util::format("busy_member_down=%llu\n",
                       static_cast<unsigned long long>(busy_member_down));
  text += util::format("busy_window_full=%llu\n",
                       static_cast<unsigned long long>(busy_window_full));
  text += util::format("route_drops=%llu\n",
                       static_cast<unsigned long long>(route_drops));
  text += util::format("heartbeats_seen=%llu\n",
                       static_cast<unsigned long long>(heartbeats_seen));
  for (std::size_t k = 0; k < members.size(); ++k) {
    text += util::format("member%zu_state=%s\n", k,
                         members[k].state.c_str());
    text += util::format("member%zu_routed=%llu\n", k,
                         static_cast<unsigned long long>(members[k].routed));
  }
  return text;
}

int run_cluster(const ClusterOptions& options) {
  namespace fault = util::fault;

  if (options.members < 1) {
    std::fprintf(stderr, "cluster: need at least one member\n");
    return 1;
  }

  std::error_code ec;
  std::filesystem::create_directories(options.root, ec);
  for (int m = 0; m < options.members; ++m) {
    std::filesystem::create_directories(member_root(options.root, m), ec);
    if (ec) {
      std::fprintf(stderr, "cluster: cannot create %s: %s\n",
                   member_root(options.root, m).string().c_str(),
                   ec.message().c_str());
      return 1;
    }
  }

  std::string listen_error;
  int listener = make_unix_listener(options.socket_path, &listen_error);
  if (listener < 0) {
    std::fprintf(stderr, "cluster: %s\n", listen_error.c_str());
    return 1;
  }
  Reactor reactor;

  std::vector<MemberLink> links(static_cast<std::size_t>(options.members));
  RouterHost host(options, reactor);

  core::DaemonPolicy policy;
  policy.seed = options.service.seed;
  policy.backoff_base_ms = options.backoff_base_ms;
  policy.backoff_cap_ms = options.backoff_cap_ms;
  policy.heartbeat_deadline_ms = static_cast<std::int64_t>(
      options.heartbeat_deadline_ms > 0 ? options.heartbeat_deadline_ms
                                        : 8 * options.heartbeat_ms);
  policy.start_deadline_ms =
      static_cast<std::int64_t>(options.start_deadline_ms);
  policy.max_restarts = options.max_restarts;
  core::DaemonSupervisor supervisor(options.members, host, policy);

  std::uint64_t routed_events = 0;
  std::uint64_t routed_queries = 0;
  std::uint64_t proxied_responses = 0;
  std::uint64_t busy_member_down = 0;
  std::uint64_t busy_window_full = 0;
  std::uint64_t route_drops = 0;
  std::uint64_t heartbeats_seen = 0;

  const std::string busy_line = format_response(Response{Status::Busy, 0, ""});

  host.on_spawned = [&](int member, int fd) {
    MemberLink& link = links[static_cast<std::size_t>(member)];
    reactor.close(link.beats);
    link.beats = reactor.watch(fd, [&, member](int beat_fd) {
      char beats[256];
      ssize_t n;
      do {
        n = ::read(beat_fd, beats, sizeof(beats));
      } while (n < 0 && errno == EINTR);
      if (n > 0) {
        heartbeats_seen += static_cast<std::uint64_t>(n);
        for (ssize_t b = 0; b < n; ++b) supervisor.heartbeat(member);
        return true;
      }
      // EOF or error: the writer is gone; the corpse arrives via
      // waitpid. A fresh spawn installs a fresh pipe.
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    });
  };

  auto drop_member_link = [&](int member, const char* why) {
    MemberLink& link = links[static_cast<std::size_t>(member)];
    if (link.conn != 0) {
      host.note(util::format("member %d link closed (%s)", member, why));
      reactor.close(link.conn);
      link.conn = 0;
    }
    // Never silently drop: every request in flight to the dead link is
    // answered busy — journaled-but-unacked is a valid history the
    // client's retry path owns (same contract as sync-mode failover).
    for (const Outstanding& o : link.outstanding) {
      reactor.fill(o.conn, o.slot, busy_line);
    }
    link.outstanding.clear();
    link.next_connect = Clock::now() + std::chrono::milliseconds(20);
  };

  for (int m = 0; m < options.members; ++m) {
    MemberLink& link = links[static_cast<std::size_t>(m)];
    link.handler.on_line = [&, m](Reactor::Id, const std::string& line) {
      MemberLink& owner = links[static_cast<std::size_t>(m)];
      if (owner.outstanding.empty()) {
        drop_member_link(m, "unsolicited response");
        return;
      }
      const Outstanding o = owner.outstanding.front();
      owner.outstanding.pop_front();
      ++proxied_responses;
      reactor.fill(o.conn, o.slot, line);
    };
    link.handler.on_close = [&, m](Reactor::Id) {
      drop_member_link(m, "peer closed");
    };
  }

  auto collect_stats = [&]() {
    RouterStats stats;
    stats.cluster_members = options.members;
    stats.members_up = supervisor.members_up();
    stats.member_restarts = supervisor.total_restarts();
    stats.hung_kills = supervisor.hung_kills();
    stats.routed_events = routed_events;
    stats.routed_queries = routed_queries;
    stats.proxied_responses = proxied_responses;
    stats.busy_member_down = busy_member_down;
    stats.busy_window_full = busy_window_full;
    stats.route_drops = route_drops;
    stats.heartbeats_seen = heartbeats_seen;
    stats.members.resize(static_cast<std::size_t>(options.members));
    for (int m = 0; m < options.members; ++m) {
      auto& member = stats.members[static_cast<std::size_t>(m)];
      member.state = core::member_state_name(supervisor.state(m));
      member.routed = links[static_cast<std::size_t>(m)].routed;
    }
    return stats;
  };

  auto respond = [&](Reactor::Id id, const Response& response) {
    reactor.write(id, format_response(response) + '\n');
  };

  Reactor::Handler clients;
  clients.max_line = 2 * options.service.max_payload_bytes + 4096;
  clients.on_line = [&](Reactor::Id id, const std::string& line) {
    Request request;
    try {
      request = parse_request(line);
    } catch (const std::exception& e) {
      respond(id, Response{Status::BadRequest, 0, e.what()});
      return;
    }
    if (!request.is_event) {
      if (request.query == QueryKind::Ping) {
        respond(id, Response{Status::Result, 0, "pong"});
        return;
      }
      if (request.query == QueryKind::Stats) {
        respond(id, Response{Status::Result, 0, collect_stats().to_text()});
        return;
      }
      if (request.query == QueryKind::Promote) {
        respond(id, Response{Status::BadRequest, 0,
                             "cluster members are primaries; promote "
                             "targets a standby daemon"});
        return;
      }
    }
    const int m = member_for(request.session, options.members);
    MemberLink& link = links[static_cast<std::size_t>(m)];
    if (link.conn == 0) {
      // Down or mid-restart: busy until the new incarnation finishes
      // journal replay and binds its socket. Never a silent drop.
      ++busy_member_down;
      respond(id, Response{Status::Busy, 0, ""});
      return;
    }
    if (static_cast<int>(link.outstanding.size()) >= options.member_window) {
      ++busy_window_full;
      respond(id, Response{Status::Busy, 0, ""});
      return;
    }
    reactor.write(link.conn, line + '\n');
    link.outstanding.push_back(Outstanding{id, reactor.reserve(id)});
    ++link.routed;
    if (request.is_event) {
      ++routed_events;
    } else {
      ++routed_queries;
    }
    if (fault::hit(fault::Site::RequestForwarded).drop) {
      ++route_drops;
      drop_member_link(m, "injected route fault");
    }
  };
  reactor.listen(listener, &clients);

  auto tick = [&]() -> int {
    // Reap member corpses; their deaths drive the restart schedule.
    for (;;) {
      int status = 0;
      pid_t pid;
      do {
        pid = ::waitpid(-1, &status, WNOHANG);
      } while (pid < 0 && errno == EINTR);
      if (pid <= 0) break;
      const std::uint64_t token = static_cast<std::uint64_t>(pid);
      const int member = supervisor.member_of(token);
      if (member >= 0) drop_member_link(member, "member process died");
      supervisor.member_exited(token, WIFSIGNALED(status),
                               WIFSIGNALED(status) ? WTERMSIG(status)
                                                   : WEXITSTATUS(status));
    }
    supervisor.tick();

    const Clock::time_point now = Clock::now();
    bool connecting = false;
    for (int m = 0; m < options.members; ++m) {
      MemberLink& link = links[static_cast<std::size_t>(m)];
      const core::MemberState state = supervisor.state(m);
      if (link.conn != 0 ||
          (state != core::MemberState::Starting &&
           state != core::MemberState::Up)) {
        continue;
      }
      connecting = true;
      if (now < link.next_connect) continue;
      const int fd = connect_unix(member_socket_path(options.root, m));
      if (fd < 0) {
        link.next_connect = now + std::chrono::milliseconds(20);
      } else {
        link.conn = reactor.add(fd, &link.handler);
        host.note(util::format("member %d routable", m));
      }
    }

    std::int64_t timeout = supervisor.next_deadline_ms(200);
    if (connecting) timeout = std::min<std::int64_t>(timeout, 20);
    return static_cast<int>(timeout);
  };

  std::printf("cluster: routing %s across %d members under %s\n",
              options.socket_path.c_str(), options.members,
              options.root.string().c_str());
  std::fflush(stdout);

  supervisor.start();
  reactor.run(tick);

  std::fprintf(stderr, "cluster: shutting down\n");

  // In-flight proxied requests become busy; clients get their buffered
  // responses flushed best-effort before the sockets close.
  for (int m = 0; m < options.members; ++m) {
    drop_member_link(m, "router shutdown");
  }
  reactor.shutdown();

  // Graceful member shutdown: SIGTERM (each drains + checkpoints),
  // SIGKILL whatever outlives the grace window, reap everything.
  for (int m = 0; m < options.members; ++m) {
    const std::uint64_t token = supervisor.token(m);
    if (token != 0) ::kill(static_cast<pid_t>(token), SIGTERM);
  }
  const Clock::time_point kill_deadline =
      Clock::now() + std::chrono::seconds(5);
  bool any_live = true;
  bool killed = false;
  while (any_live) {
    any_live = false;
    for (int m = 0; m < options.members; ++m) {
      any_live |= supervisor.token(m) != 0;
    }
    if (!any_live) break;
    int status = 0;
    pid_t pid;
    do {
      pid = ::waitpid(-1, &status, WNOHANG);
    } while (pid < 0 && errno == EINTR);
    if (pid > 0) {
      supervisor.member_exited(static_cast<std::uint64_t>(pid),
                               WIFSIGNALED(status),
                               WIFSIGNALED(status) ? WTERMSIG(status)
                                                   : WEXITSTATUS(status));
      // member_exited schedules a restart; drop the token so the loop
      // above sees the member as reaped rather than respawning it.
      continue;
    }
    if (pid < 0 && errno == ECHILD) break;
    if (Clock::now() >= kill_deadline) {
      if (killed) break;
      for (int m = 0; m < options.members; ++m) {
        const std::uint64_t token = supervisor.token(m);
        if (token != 0) ::kill(static_cast<pid_t>(token), SIGKILL);
      }
      killed = true;
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  ::unlink(options.socket_path.c_str());
  std::fprintf(stderr, "cluster: clean shutdown\n");
  return 0;
}

}  // namespace provmark::serve
