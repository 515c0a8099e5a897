#include "serve/daemon.h"

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/supervise.h"
#include "serve/reactor.h"
#include "serve/replicate.h"
#include "serve/socket_util.h"
#include "util/fault.h"

namespace provmark::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// A sync-mode event ack: journaled locally, waiting for the standby's
/// cumulative ack before its reserved response slot is filled.
struct GatedAck {
  Reactor::Id conn = 0;
  Reactor::Slot slot = 0;
  std::string session;
  std::uint64_t seq = 0;
  std::string line;  ///< the `ok <seq>` response
};

}  // namespace

int run_daemon(const DaemonOptions& options) {
  // The Service is constructed before the replicators but its sinks
  // must reach them, so the sinks capture atomics filled in afterwards
  // (a sink fired during recovery simply sees nullptr and no-ops).
  std::atomic<PrimaryReplicator*> primary_ptr{nullptr};
  std::atomic<ReplicaReplicator*> replica_ptr{nullptr};
  std::atomic<bool> serving_as_replica{!options.replica_of.empty()};

  DaemonOptions opts = options;
  opts.service.on_record = [&primary_ptr](const std::string& session,
                                          const JournalRecord& record) {
    if (PrimaryReplicator* p = primary_ptr.load()) p->on_record(session, record);
  };
  opts.service.on_checkpoint = [&primary_ptr, &replica_ptr](
                                   const std::string& session,
                                   std::uint64_t seq,
                                   const std::string& digest) {
    if (PrimaryReplicator* p = primary_ptr.load()) {
      p->on_checkpoint(session, seq, digest);
    }
    if (ReplicaReplicator* r = replica_ptr.load()) {
      r->on_checkpoint(session, seq, digest);
    }
  };
  opts.service.on_applied =
      [&replica_ptr, &serving_as_replica](
          const std::string& session, std::uint64_t seq,
          const std::function<std::string()>& digest_now) {
        if (!serving_as_replica.load()) return;
        if (ReplicaReplicator* r = replica_ptr.load()) {
          r->on_applied(session, seq, digest_now);
        }
      };
  const int cluster_member = options.cluster_member;
  opts.service.stats_extra = [&primary_ptr, &replica_ptr,
                              &serving_as_replica,
                              cluster_member]() -> std::string {
    std::string text;
    if (serving_as_replica.load()) {
      if (ReplicaReplicator* r = replica_ptr.load()) text = r->stats_text();
    } else if (PrimaryReplicator* p = primary_ptr.load()) {
      text = p->stats_text();
    }
    if (cluster_member >= 0) {
      text += "cluster_member=" + std::to_string(cluster_member) + "\n";
    }
    return text;
  };

  Service service(opts.service);

  ReplicationConfig repl_config;
  repl_config.sync_mode = options.repl_sync;
  repl_config.heartbeat_ms = options.heartbeat_ms;
  repl_config.promote_after_missed = options.promote_after_missed;
  repl_config.seed = options.service.seed;
  PrimaryReplicator primary(service, repl_config);
  ReplicaReplicator replica(service, repl_config);
  primary_ptr.store(&primary);
  replica_ptr.store(&replica);

  std::string listen_error;
  int listener = make_unix_listener(options.socket_path, &listen_error);
  if (listener < 0) {
    std::fprintf(stderr, "serve: %s\n", listen_error.c_str());
    return 1;
  }
  Reactor reactor;

  std::printf("serve: listening on %s\n", options.socket_path.c_str());
  std::fflush(stdout);
  if (serving_as_replica.load()) {
    std::fprintf(stderr, "serve: standby of %s (mode %s)\n",
                 options.replica_of.c_str(),
                 options.repl_sync ? "sync" : "async");
  }

  // Cluster-member liveness: one byte per period on the control pipe
  // to the supervising router. The first beat is sent only now —
  // after the Service constructor finished journal replay and the
  // listener is bound — so the router's Starting→Up transition means
  // "replay complete, routable". A fired member-hang fault goes
  // silent here and lets the router's deadline machinery kill us.
  auto send_heartbeat = [&options] {
    if (options.heartbeat_fd < 0) return;
    if (util::fault::fired_count(util::fault::FaultKind::MemberHang) > 0) {
      return;
    }
    const char byte = 'h';
    ssize_t n;
    do {
      n = ::write(options.heartbeat_fd, &byte, 1);
    } while (n < 0 && errno == EINTR);
  };
  Clock::time_point last_member_heartbeat = Clock::now();
  send_heartbeat();

  const std::string busy_line = format_response(Response{Status::Busy, 0, ""});
  std::vector<GatedAck> gated;
  Reactor::Id replica_conn = 0;  ///< primary: the inbound replication link

  // Standby link to the primary, with seeded-backoff reconnect.
  Reactor::Id link = 0;
  int connect_attempt = 0;
  Clock::time_point next_connect = Clock::now();
  Clock::time_point last_heartbeat = Clock::now();

  // repl-partition fault enactment: black-hole the replication link
  // (drop inbound, hold outbound) until the deadline, then drop it.
  bool partitioned = false;
  Clock::time_point partition_until{};

  auto connect_later = [&](Clock::time_point now, int attempt) {
    connect_attempt = attempt;
    next_connect = now + std::chrono::milliseconds(core::backoff_ms(
                             repl_config.seed, 0, attempt,
                             repl_config.backoff_base_ms,
                             repl_config.backoff_cap_ms));
  };

  auto fail_gated = [&] {
    // The standby is gone (or its stream died): every gated sync-mode
    // ack becomes `busy` — journaled but unacknowledged is a valid
    // history, and the client's retry path owns it from here.
    for (const GatedAck& ack : gated) {
      reactor.fill(ack.conn, ack.slot, busy_line);
    }
    gated.clear();
  };

  auto resolve_gated = [&] {
    std::erase_if(gated, [&](const GatedAck& ack) {
      switch (primary.ack_state(ack.session, ack.seq)) {
        case PrimaryReplicator::AckState::Acked:
          reactor.fill(ack.conn, ack.slot, ack.line);
          return true;
        case PrimaryReplicator::AckState::Failed:
          reactor.fill(ack.conn, ack.slot, busy_line);
          return true;
        case PrimaryReplicator::AckState::Pending:
          break;
      }
      return false;
    });
  };

  auto drop_replica_conn = [&](const char* why) {
    if (replica_conn == 0) return;
    std::fprintf(stderr, "serve: replication link closed (%s)\n", why);
    reactor.close(replica_conn);
    replica_conn = 0;
    partitioned = false;
    primary.on_replica_disconnected();
    fail_gated();
  };

  auto drop_link = [&](const char* why) {
    if (link == 0) return;
    std::fprintf(stderr, "serve: link to primary lost (%s)\n", why);
    reactor.close(link);
    link = 0;
    replica.on_link_disconnected();
  };
  auto lose_link = [&](const char* why) {
    drop_link(why);
    connect_later(Clock::now(), 1);
  };

  auto promote = [&](const char* how) {
    drop_link(how);
    serving_as_replica.store(false);
    // Finish replicated catch-up so the first answers we give as
    // primary already cover every record the dead primary acked.
    service.flush();
    std::fprintf(stderr, "serve: promoted to primary (%s)\n", how);
  };

  auto respond = [&](Reactor::Id id, const Response& response) {
    reactor.write(id, format_response(response) + '\n');
  };

  // Primary side of an attached standby's stream.
  Reactor::Handler replica_link;
  replica_link.on_line = [&](Reactor::Id, const std::string& line) {
    try {
      primary.handle_line(line);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: replication protocol error: %s\n",
                   e.what());
      drop_replica_conn("protocol error");
    }
  };
  replica_link.on_close = [&](Reactor::Id) {
    drop_replica_conn("peer closed");
  };

  auto handle_request_line = [&](Reactor::Id id, const std::string& line) {
    Request request;
    try {
      request = parse_request(line);
    } catch (const std::exception& e) {
      respond(id, Response{Status::BadRequest, 0, e.what()});
      return;
    }
    if (!request.is_event && request.query == QueryKind::Promote) {
      if (serving_as_replica.load()) {
        promote("promote request");
        respond(id, Response{Status::Result, 0, "promoted"});
      } else {
        respond(id, Response{Status::Result, 0, "already-primary"});
      }
      return;
    }
    if (request.is_event && serving_as_replica.load()) {
      respond(id,
              Response{Status::Error, 0,
                       "standby: events are refused until promotion; "
                       "feed the primary or run `provmark promote`"});
      return;
    }
    if (request.is_event && primary.sync_mode()) {
      if (!primary.replica_connected()) {
        // Nothing journaled: in sync mode an ack promises standby
        // durability, which no standby can currently provide.
        respond(id, Response{Status::Busy, 0, ""});
        return;
      }
      Response response = service.submit(request);
      if (response.status == Status::Ok) {
        gated.push_back(GatedAck{id, reactor.reserve(id), request.session,
                                 response.seq, format_response(response)});
      } else {
        respond(id, response);
      }
      return;
    }
    respond(id, service.submit(request));
  };

  // A client connection that opens with `repl-hello` becomes the
  // replication link.
  auto attach_replica = [&](Reactor::Id id, const std::string& line) {
    if (serving_as_replica.load()) {
      respond(id, Response{Status::Error, 0,
                           "standby: cannot host a replication link"});
      return;
    }
    if (line.rfind("repl-hello ", 0) != 0) {
      respond(id, Response{Status::BadRequest, 0,
                           "replication verbs require repl-hello first"});
      return;
    }
    // A newer standby supersedes the old link.
    drop_replica_conn("superseded by a new standby");
    replica_conn = id;
    reactor.set_handler(id, &replica_link);
    primary.on_replica_connected();
    std::fprintf(stderr, "serve: replication link attached\n");
    replica_link.on_line(id, line);
  };

  Reactor::Handler clients;
  clients.max_line = 2 * options.service.max_payload_bytes + 4096;
  clients.on_line = [&](Reactor::Id id, const std::string& line) {
    if (line.rfind("repl-", 0) == 0) {
      attach_replica(id, line);
    } else {
      handle_request_line(id, line);
    }
  };
  reactor.listen(listener, &clients);

  // Standby side: the outbound link to the primary.
  Reactor::Handler upstream;
  upstream.on_line = [&](Reactor::Id, const std::string& line) {
    try {
      replica.handle_line(line);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: replication protocol error: %s\n",
                   e.what());
      lose_link("peer closed");
    }
  };
  upstream.on_close = [&](Reactor::Id) { lose_link("peer closed"); };

  auto tick = [&]() -> int {
    const Clock::time_point now = Clock::now();

    if (options.heartbeat_fd >= 0 &&
        now - last_member_heartbeat >=
            std::chrono::duration<double, std::milli>(
                options.member_heartbeat_ms)) {
      last_member_heartbeat = now;
      send_heartbeat();
    }

    // Standby link maintenance: (re)connect with seeded backoff.
    if (serving_as_replica.load() && link == 0 && now >= next_connect) {
      const int fd = connect_unix(options.replica_of);
      if (fd >= 0) {
        link = reactor.add(fd, &upstream);
        connect_attempt = 0;
        replica.on_link_connected();
        last_heartbeat = now;
        std::fprintf(stderr, "serve: connected to primary %s\n",
                     options.replica_of.c_str());
      } else {
        connect_later(now, connect_attempt + 1);
      }
    }

    // Standby heartbeats: tick, then enforce the reconnect and
    // auto-promote budgets.
    if (serving_as_replica.load() && link != 0 &&
        now - last_heartbeat >=
            std::chrono::duration<double, std::milli>(
                repl_config.heartbeat_ms)) {
      last_heartbeat = now;
      replica.heartbeat_tick();
      const int missed = replica.missed_heartbeats();
      if (repl_config.promote_after_missed > 0 &&
          missed >= repl_config.promote_after_missed) {
        std::fprintf(stderr,
                     "serve: %d heartbeats unanswered, auto-promoting\n",
                     missed);
        promote("missed-heartbeat budget");
      } else if (missed >= options.reconnect_after_missed) {
        drop_link("heartbeats unanswered");
        connect_later(now, 1);
      }
    }

    // repl-partition: deadline passed -> drop the link for real.
    if (partitioned && now >= partition_until) {
      drop_replica_conn("partition deadline");
    }

    // Drain replicator output: worker-thread sinks (repl-check,
    // repl-ack, repl-diverged) queue lines between poll wakes.
    if (!serving_as_replica.load()) {
      primary.flush_pending_resets();
      if (replica_conn != 0) {
        reactor.write(replica_conn, primary.take_output());
        // Link faults fire at forwarded records; enact them here.
        if (primary.take_link_drop_request()) {
          drop_replica_conn("injected link fault");
        } else {
          const double ms = primary.take_partition_request_ms();
          if (ms > 0 && !partitioned) {
            partitioned = true;
            partition_until =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
            reactor.hold(replica_conn);
          }
        }
      }
    }
    if (link != 0) reactor.write(link, replica.take_output());

    // Sync-mode acks: release what the standby has fsynced.
    resolve_gated();

    const bool repl_active = serving_as_replica.load() ||
                             replica_conn != 0 || partitioned || link != 0;
    int timeout =
        repl_active
            ? std::max(10, static_cast<int>(repl_config.heartbeat_ms / 4))
            : -1;
    if (options.heartbeat_fd >= 0) {
      // Wake often enough to keep the liveness beat ahead of the
      // router's deadline even when no client traffic arrives.
      const int beat =
          std::max(10, static_cast<int>(options.member_heartbeat_ms / 2));
      timeout = timeout < 0 ? beat : std::min(timeout, beat);
    }
    return timeout;
  };

  reactor.run(tick);

  // Graceful drain: finish queued applies, checkpoint + compact every
  // healthy session, then leave. Clients see their sockets close after
  // any buffered responses are flushed best-effort.
  std::fprintf(stderr, "serve: draining\n");
  service.drain();
  fail_gated();
  reactor.shutdown();
  ::unlink(options.socket_path.c_str());
  std::fprintf(stderr, "serve: clean shutdown\n");
  return 0;
}

std::int64_t feed_backoff_ms(std::uint64_t seed, int request_index,
                             int attempt, const FeedOptions& options) {
  // Keyed by (seed, request index, attempt): the exact schedule two
  // runs of the same feed sleep is reproducible, which the retry tests
  // assert literally.
  return core::backoff_ms(seed, request_index, attempt,
                          options.backoff_base_ms, options.backoff_cap_ms);
}

int run_feed(const std::string& socket_path, std::istream& in,
             std::ostream& out, const FeedOptions& options) {
  ::signal(SIGPIPE, SIG_IGN);
  int fd = -1;

  bool all_ok = true;
  std::string line;
  std::string response_buf;
  int request_index = -1;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    ++request_index;
    const std::string framed = line + "\n";
    for (int attempt = 0;; ++attempt) {
      // Connection failures — refused connects, resets, the daemon
      // closing mid-request — consume the same per-request retry
      // budget as shed/busy, so a feed with --feed-retries rides out a
      // daemon or cluster-member restart window. Re-sending after a
      // mid-request loss is at-least-once delivery by design.
      auto connection_lost = [&](const char* what) -> int {
        if (fd >= 0) ::close(fd);
        fd = -1;
        response_buf.clear();
        if (attempt < options.retries) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              feed_backoff_ms(options.seed, request_index, attempt + 1,
                              options)));
          return 0;  // retry
        }
        std::fprintf(stderr, "feed: %s\n", what);
        return 1;  // budget spent: fatal
      };

      if (fd < 0) {
        fd = connect_unix(socket_path);
        if (fd < 0) {
          const std::string what =
              "cannot connect to " + socket_path + ": " +
              std::strerror(errno);
          if (connection_lost(what.c_str()) != 0) return 1;
          continue;
        }
      }

      std::size_t sent = 0;
      bool lost = false;
      while (sent < framed.size()) {
        ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          lost = true;
          break;
        }
        sent += static_cast<std::size_t>(n);
      }
      if (lost) {
        if (connection_lost("connection lost") != 0) return 1;
        continue;
      }
      // Synchronous request/response: one line back per line sent.
      std::string response_line;
      while (!next_line(response_buf, response_line)) {
        char buffer[4096];
        ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          lost = true;
          break;
        }
        response_buf.append(buffer, static_cast<std::size_t>(n));
      }
      if (lost) {
        if (connection_lost("connection closed by daemon") != 0) return 1;
        continue;
      }

      bool retry = false;
      bool ok = true;
      try {
        Response response = parse_response(response_line);
        ok = response.status == Status::Ok ||
             response.status == Status::Result;
        retry = (response.status == Status::Shed ||
                 response.status == Status::Busy) &&
                attempt < options.retries;
      } catch (const std::exception&) {
        ok = false;
      }
      if (retry) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            feed_backoff_ms(options.seed, request_index, attempt + 1,
                            options)));
        continue;
      }
      out << response_line << "\n";
      if (!ok) all_ok = false;
      break;
    }
  }
  if (fd >= 0) ::close(fd);
  return all_ok ? 0 : 3;
}

int run_feed(const std::string& socket_path, std::istream& in,
             std::ostream& out) {
  return run_feed(socket_path, in, out, FeedOptions{});
}

}  // namespace provmark::serve
