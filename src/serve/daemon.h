// AF_UNIX front end of the streaming service: `provmark serve` hosts a
// Service behind a stream socket; `provmark feed` streams request lines
// to it and prints the responses.
//
// The daemon runs on serve::Reactor, one single-threaded event loop:
// admission is O(1)+fsync and all heavy work lives on the Service's
// apply workers. On SIGTERM/SIGINT it drains the service (finish
// queued applies, checkpoint + compact every healthy session) and
// exits 0; SIGKILL is what the journal exists for.
//
// Replication (docs/serve.md, "Replication & failover"): a primary
// daemon hosts a PrimaryReplicator; an inbound connection that opens
// with `repl-hello` becomes the replication link and every acked
// record streams down it. A daemon started with `replica_of` runs as a
// hot standby instead: it dials the primary, tails the record stream
// through ReplicaReplicator, keeps warm sessions, answers read-only
// queries locally, refuses events, and promotes to a full primary on
// `provmark promote` or after `promote_after_missed` unanswered
// heartbeats. In `repl_sync` mode the daemon holds each client event
// ack until the standby's cumulative ack covers it — held acks
// become `busy` if the standby drops (journaled-but-unacked is a valid
// history; the client retries).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "serve/service.h"

namespace provmark::serve {

struct DaemonOptions {
  ServiceOptions service;
  std::string socket_path;

  /// Non-empty: run as a hot standby of the primary at this socket.
  std::string replica_of;
  /// Primary: hold client event acks until the standby fsynced them.
  bool repl_sync = false;
  /// Standby heartbeat period (and the daemon's replication poll tick).
  double heartbeat_ms = 500;
  /// Standby: auto-promote after this many consecutive unanswered
  /// heartbeats; 0 = only explicit `provmark promote`.
  int promote_after_missed = 0;
  /// Standby: consecutive missed heartbeats before dropping the link
  /// and reconnecting with seeded backoff.
  int reconnect_after_missed = 3;

  /// Cluster member mode (docs/serve.md "Cluster sharding"): >= 0 when
  /// this daemon is member K of a routed fleet. Surfaces as a
  /// `cluster_member=K` stats line so health pollers can tell members
  /// apart from standalone primaries.
  int cluster_member = -1;
  /// Liveness control channel: when >= 0, the daemon writes one
  /// heartbeat byte to this fd (a pipe to the supervising router)
  /// every `member_heartbeat_ms`, starting the moment the listener is
  /// bound — i.e. after journal replay completed. The router opens the
  /// pipe non-blocking, so a full pipe skips a beat. Silence past the
  /// router's deadline means a wedged event loop; the router kills and
  /// restarts the member.
  int heartbeat_fd = -1;
  double member_heartbeat_ms = 200;
};

/// Run the daemon until SIGTERM/SIGINT; returns the process exit code
/// (0 on clean drain). Replaces a stale socket file at `socket_path`.
int run_daemon(const DaemonOptions& options);

/// Client-side retry envelope for `provmark feed` (docs/cli.md). With
/// retries = 0 (the default) behaviour is identical to the historical
/// client: every `shed`/`busy` is final and any connection failure is
/// fatal. With retries > 0 a shed or busy response is retried after a
/// deterministic seeded exponential backoff — the same envelope the
/// sweep supervisor uses (core::backoff_ms), keyed by (seed, request
/// index, attempt) so two runs of the same feed sleep the exact same
/// schedule. Connection failures (connect refused, ECONNRESET, the
/// daemon closing mid-request) consume the same per-request budget:
/// the client reconnects and re-sends the current request, which is
/// what lets a feed ride out a daemon or cluster-member restart
/// window. Re-sending after a mid-request connection loss is
/// at-least-once delivery — the daemon may have journaled the event
/// before dying — which is the documented client choice (both
/// histories are valid; see docs/serve.md).
struct FeedOptions {
  int retries = 0;
  std::uint64_t seed = 42;
  std::int64_t backoff_base_ms = 50;
  std::int64_t backoff_cap_ms = 2000;
};

/// The deterministic sleep before retry `attempt` (1-based) of the
/// request at `request_index` (0-based). Exposed so tests can assert
/// the exact schedule.
std::int64_t feed_backoff_ms(std::uint64_t seed, int request_index,
                             int attempt, const FeedOptions& options);

/// Stream newline-framed request lines from `in` (blank lines and
/// `#` comments skipped) to the daemon at `socket_path`, writing one
/// response line each to `out` (only the final response of a retried
/// request is printed). Returns 0 when every event was acked and every
/// query answered, 3 when any request was shed, refused or errored,
/// 1 on connection failure.
int run_feed(const std::string& socket_path, std::istream& in,
             std::ostream& out, const FeedOptions& options);
int run_feed(const std::string& socket_path, std::istream& in,
             std::ostream& out);

}  // namespace provmark::serve
