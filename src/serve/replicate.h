// Journal replication + hot standby for the streaming service
// (docs/serve.md, "Replication & failover").
//
// A primary `provmark serve` streams every acked journal record to one
// standby started with `provmark serve --replica-of <socket>`. The
// standby journals + fsyncs each record through the *same*
// Service::apply path the primary used, acks its applied position
// upstream, and keeps a warm Session per stream — so promotion is
// instant: drain the link, flush the queues, start answering. Because
// both sides run identical deterministic applies over identical
// journals, a promoted standby answers every query about an acked
// event bit-identically to the primary it replaced.
//
// Wire grammar — rides the PR-8 newline/space framing and escape_field;
// the daemon routes any request line starting with "repl-" here:
//
//   repl-hello v1 <nsessions>                      standby -> primary
//   repl-have <session> <last> <ckpt> <digest>     standby -> primary
//   repl-resume <session> <seed> <from-seq>        primary -> standby
//   repl-reset <session> <seed> <base-seq> <escaped-program>
//                                                  primary -> standby
//   repl-rec <session> <escaped-record-line>       primary -> standby
//   repl-ack <session> <seq>                       standby -> primary
//   repl-ping <n> / repl-pong <n>                  standby-initiated
//   repl-check <session> <seq> <digest>            primary -> standby
//   repl-diverged <session> <seq> <escaped-reason> standby -> primary
//
// Handshake: the standby announces, per local session, its last
// journaled seq R, checkpoint seq C and an FNV digest over the record
// lines in (C, R]. The primary resumes from R iff its own journal
// still covers (C, R] with the same digest and R is not ahead of it;
// otherwise it ships a full reset (its checkpoint base + live tail).
// A standby that is *ahead* of the primary is quarantined with a typed
// reason — that history fork must never be silently merged.
//
// Acks are cumulative: `repl-ack s N` means the standby has journaled
// + fsynced everything through N. In `--repl-mode sync` the daemon
// parks each client `ok` until the ack covers it, so an acked event
// survives even the primary's disk dying. Divergence detection rides
// checkpoints: the primary sends its fixpoint digest at each
// checkpoint seq; the standby compares at exactly that seq and
// quarantines the stream (typed reason, `repl-diverged` upstream) on
// mismatch — it never serves silently diverged state.
//
// Both classes are socket-agnostic line processors: the daemon feeds
// inbound lines to handle_line() and writes take_output() to the link.
// Locking contract: on_record / on_checkpoint / on_applied are invoked
// under service locks, so methods here never call into the Service
// while holding the replicator mutex (flush_pending_resets and the
// handshake snapshot-then-emit dance exist exactly for this).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "serve/journal.h"
#include "serve/service.h"

namespace provmark::serve {

struct ReplicationConfig {
  /// sync: the daemon holds each client event ack until the standby's
  /// cumulative ack covers its seq. async: ack on local fsync (default).
  bool sync_mode = false;
  /// Standby heartbeat period; the primary answers pings, the standby
  /// counts unanswered ones.
  double heartbeat_ms = 500;
  /// Standby: auto-promote after this many consecutive missed
  /// heartbeats (0 = only explicit `provmark promote`).
  int promote_after_missed = 0;
  /// Seeds the reconnect backoff envelope (core::backoff_ms).
  std::uint64_t seed = 42;
  std::int64_t backoff_base_ms = 100;
  std::int64_t backoff_cap_ms = 5000;
};

/// Primary side: forwards acked records to the standby, negotiates the
/// handshake, tracks cumulative acks (the sync-mode release gate) and
/// answers heartbeats.
class PrimaryReplicator {
 public:
  PrimaryReplicator(Service& service, ReplicationConfig config);

  /// A standby connection attached (identified itself with repl-hello
  /// is still pending — this just resets per-link state).
  void on_replica_connected();
  /// The standby link dropped; streams reset, the next connection
  /// renegotiates from journal state.
  void on_replica_disconnected();
  bool replica_connected() const;

  /// Process one inbound "repl-*" line from the standby. Malformed
  /// lines throw std::invalid_argument (the daemon drops the link).
  void handle_line(const std::string& line);

  /// Drain queued outbound lines (each '\n'-terminated).
  std::string take_output();

  /// ServiceOptions::on_record target — called under the admission
  /// mutex, in journal order. Only buffers.
  void on_record(const std::string& session, const JournalRecord& record);
  /// ServiceOptions::on_checkpoint target — called under the session's
  /// apply lock. Queues the divergence-check digest exchange.
  void on_checkpoint(const std::string& session, std::uint64_t seq,
                     const std::string& digest);

  /// Ship queued full resets for streams the record sink could not
  /// forward directly (unknown or reset-pending sessions). Must be
  /// called with no service locks held (the daemon loop); returns true
  /// when anything was emitted.
  bool flush_pending_resets();

  /// Fate of a parked sync-mode client ack: Pending while the standby
  /// has not acked (session, seq) yet, Acked once its cumulative ack
  /// covers it, Failed when the stream is quarantined (the standby
  /// will never ack — the daemon converts the parked ack to `busy`).
  enum class AckState { Pending, Acked, Failed };
  AckState ack_state(const std::string& session, std::uint64_t seq) const;
  bool ack_covers(const std::string& session, std::uint64_t seq) const {
    return ack_state(session, seq) == AckState::Acked;
  }

  bool sync_mode() const { return config_.sync_mode; }
  /// Records forwarded but not yet acked, summed over streams.
  std::uint64_t lag_events() const;
  /// key=value lines for the stats response (never touches the
  /// Service — safe as ServiceOptions::stats_extra).
  std::string stats_text() const;

  /// Link faults requested by --fault-spec rules at forwarded records;
  /// the daemon polls and enacts them on the connection.
  bool take_link_drop_request();
  double take_partition_request_ms();

 private:
  enum class StreamState { Idle, Streaming, PendingReset, Quarantined };
  struct Stream {
    StreamState state = StreamState::Idle;
    std::uint64_t sent = 0;   ///< highest seq forwarded
    std::uint64_t acked = 0;  ///< standby's cumulative ack
    std::string reason;       ///< quarantine reason
    /// Records that arrived while the stream could not forward
    /// directly (handshake or reset pending); drained seq-deduped when
    /// the stream goes Streaming.
    std::deque<JournalRecord> pending;
  };
  struct HaveEntry {
    std::string session;
    std::uint64_t last = 0;
    std::uint64_t ckpt = 0;
    std::uint64_t digest = 0;
  };

  void finish_handshake();
  void emit_locked(const std::string& line);
  // The *_locked helpers require mu_ held.
  /// Emit one repl-rec, advance stream.sent and count it; a link fault
  /// rule due at this record is left for the daemon loop to enact.
  void forward_record_locked(const std::string& session, Stream& stream,
                             const JournalRecord& record);
  /// Forward stream.pending with seq > stream.sent, then mark the
  /// stream Streaming.
  void drain_pending_locked(const std::string& session, Stream& stream);
  /// Emit a repl-reset from `snapshot`, forward its records and the
  /// pending ones, and mark the stream Streaming.
  void reset_stream_locked(const std::string& session, Stream& stream,
                           const Service::ResyncSnapshot& snapshot);
  void quarantine_locked(const std::string& session, Stream& stream,
                         const std::string& reason);

  Service& service_;
  ReplicationConfig config_;

  mutable std::mutex mu_;
  bool connected_ = false;
  bool handshaking_ = false;
  std::size_t have_expected_ = 0;
  std::vector<HaveEntry> have_;
  std::map<std::string, Stream> streams_;
  bool pending_resets_ = false;
  std::string out_;
  std::uint64_t forwarded_records_ = 0;
  bool link_drop_request_ = false;
  double partition_request_ms_ = 0;
  bool heard_from_replica_ = false;
  std::chrono::steady_clock::time_point last_inbound_{};
};

/// Standby side: announces local journal state, applies the record
/// stream through Service::apply_replicated, acks fsynced positions,
/// initiates heartbeats and verifies checkpoint digests.
class ReplicaReplicator {
 public:
  ReplicaReplicator(Service& service, ReplicationConfig config);

  /// The link to the primary is up: emits repl-hello + repl-have lines
  /// describing every local session. Call with no service locks held.
  void on_link_connected();
  void on_link_disconnected();
  bool link_connected() const;

  /// Process one inbound "repl-*" line from the primary. May call into
  /// the Service (apply/reset) — never call while holding service
  /// locks. Malformed lines throw std::invalid_argument.
  void handle_line(const std::string& line);

  std::string take_output();

  /// Emit one repl-ping and count it as potentially missed; any
  /// inbound line zeroes the miss counter. The daemon calls this every
  /// heartbeat period and reads missed_heartbeats() against the
  /// reconnect / auto-promote budgets.
  void heartbeat_tick();
  int missed_heartbeats() const;

  /// ServiceOptions::on_applied target — called under the session's
  /// apply lock. Compares a pending checkpoint digest at exactly this
  /// seq; mismatch quarantines the stream and queues repl-diverged.
  void on_applied(const std::string& session, std::uint64_t seq,
                  const std::function<std::string()>& digest_now);
  /// ServiceOptions::on_checkpoint target on the *standby's own*
  /// Service. Remembers the digest at our checkpoint seq so a primary
  /// check arriving after we already applied past it can still be
  /// compared (the standby usually applies ahead of the check line).
  void on_checkpoint(const std::string& session, std::uint64_t seq,
                     const std::string& digest);

  /// key=value lines for the stats response.
  std::string stats_text() const;
  /// Streams quarantined by divergence detection (id -> reason).
  std::map<std::string, std::string> quarantined_streams() const;

 private:
  struct Stream {
    std::uint64_t seed = 0;
    std::uint64_t next = 1;  ///< next seq expected from the primary
    bool quarantined = false;
    std::string reason;
  };

  void emit_locked(const std::string& line);
  void note_inbound_locked();
  void quarantine(const std::string& session, std::uint64_t seq,
                  const std::string& reason);
  /// Compare a primary digest against ours at the same seq; quarantine
  /// on mismatch. Caller holds mu_.
  void compare_digest_locked(const std::string& session, std::uint64_t seq,
                             const std::string& ours,
                             const std::string& theirs);

  Service& service_;
  ReplicationConfig config_;

  mutable std::mutex mu_;
  bool connected_ = false;
  std::string out_;
  std::map<std::string, Stream> streams_;
  /// session -> (checkpoint seq -> expected digest) awaiting local
  /// apply progress.
  std::map<std::string, std::map<std::uint64_t, std::string>> checks_;
  /// session -> (seq, digest) of our own most recent checkpoint — the
  /// comparison point for primary checks we already applied past.
  std::map<std::string, std::pair<std::uint64_t, std::string>> own_ckpt_;
  std::map<std::string, std::uint64_t> last_applied_;
  std::uint64_t replicated_records_ = 0;
  std::uint64_t ping_counter_ = 0;
  int missed_heartbeats_ = 0;
  bool heard_from_primary_ = false;
  std::chrono::steady_clock::time_point last_inbound_{};
};

}  // namespace provmark::serve
