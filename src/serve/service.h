// The streaming provenance service: bounded admission, per-session
// WAL-backed state, overload shedding, crash recovery, graceful drain.
//
// Architecture (docs/serve.md): admission is the client-facing fast
// path — validate, decide shed/busy from queue depths, append+fsync the
// journal, ack. Everything expensive (Datalog saturation, pipeline
// runs) happens on worker threads, one session at a time per session,
// so admission latency never depends on matcher or fixpoint work and a
// slow session can only back up its own queue.
//
// Shedding is deterministic — decided purely from queue-depth counters
// at admission, never from clocks or scheduling:
//   * per-session queue at capacity          -> busy (backpressure)
//   * global backlog >= cap/2, priority low  -> shed
//   * global backlog >= cap, priority normal -> shed
//   * global backlog >= cap, priority high   -> busy (never silently
//                                               shed)
// A shed or busy event is refused *before* the journal append, so the
// journal only ever contains acked events: shedding can drop work but
// can never corrupt a session.
//
// Crash recovery: the constructor scans the journal root, truncates
// torn tails, restores each session's checkpoint and replays the
// journal tail through Session::apply — the same function the live
// path uses — so a SIGKILL'd service restarts into bit-identical
// per-session fixpoints (enforced by tests/serve/, e.g.
// ReplayFuzz.RealSigkillMidStreamRecoversBitIdentically).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/session.h"

namespace provmark::serve {

// -- replication sinks (docs/serve.md, Replication & failover) --------------
// The replication layer observes the service through three optional
// callbacks instead of owning any service internals. Sinks run under
// service locks (record: the admission mutex; checkpoint/applied: the
// session's apply lock) and therefore must only buffer — never call
// back into the Service.

/// One record was appended + fsynced to a session's journal (both the
/// live submit path and replica catch-up fire it, in journal order).
using RecordSink =
    std::function<void(const std::string& session, const JournalRecord&)>;

/// A session checkpointed at `seq`; `digest` is its fixpoint digest at
/// exactly that seq — the divergence-detection exchange rides on it.
using CheckpointSink = std::function<void(
    const std::string& session, std::uint64_t seq, const std::string& digest)>;

/// A session applied the record at `seq`; `digest_now()` computes the
/// fixpoint digest at exactly this seq (only called when the observer
/// has a pending check — digests are not free).
using AppliedSink = std::function<void(
    const std::string& session, std::uint64_t seq,
    const std::function<std::string()>& digest_now)>;

struct ServiceOptions {
  /// Journal root; one subdirectory per session.
  std::filesystem::path root;
  /// Apply-worker threads. 0 = no threads: admitted events queue until
  /// the caller runs pump() — the deterministic single-threaded mode
  /// the admission and shedding tests drive.
  int workers = 1;
  /// Per-session pending-event cap; at capacity new events get `busy`.
  std::size_t session_queue_cap = 64;
  /// Global pending-event budget; the shedding watermarks above.
  std::size_t global_queue_cap = 256;
  /// Payload ceiling (util::check_input_size) — oversized events are
  /// refused with `too-large` before any allocation or journaling.
  std::size_t max_payload_bytes = std::size_t{1} << 20;
  /// Root seed; a session's seed is derived from (seed, session id) at
  /// creation and then pinned in its journal header.
  std::uint64_t seed = 42;
  /// Checkpoint + compact a session's journal after this many applied
  /// events (0 = only on drain()).
  std::uint64_t checkpoint_every = 64;
  /// Base pipeline options for run events (trials, matcher, latency).
  core::PipelineOptions pipeline;
  /// Replication observers (see the sink typedefs above); empty = off.
  RecordSink on_record;
  CheckpointSink on_checkpoint;
  AppliedSink on_applied;
  /// Extra key=value lines appended to the `stats` response body —
  /// how the daemon surfaces replication health (repl_lag_events,
  /// last_heartbeat_ms, repl_mode) without the Service knowing about
  /// replication. Called without service locks held.
  std::function<std::string()> stats_extra;
};

struct ServiceStats {
  std::uint64_t sessions = 0;
  std::uint64_t quarantined_sessions = 0;
  std::uint64_t pending = 0;   ///< admitted, not yet applied
  std::uint64_t admitted = 0;
  std::uint64_t applied = 0;
  std::uint64_t shed_low = 0;
  std::uint64_t shed_normal = 0;
  std::uint64_t busy = 0;
  std::uint64_t rejected_quarantined = 0;
  std::uint64_t rejected_oversized = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t replayed_events = 0;   ///< journal records re-applied
  std::uint64_t torn_bytes_truncated = 0;

  /// key=value lines, the `stats` request body.
  std::string to_text() const;
};

class Service {
 public:
  /// Opens the journal root and recovers every session found there
  /// (checkpoint restore + journal-tail replay). Throws on unreadable
  /// or corrupt-beyond-torn-tail journals.
  explicit Service(ServiceOptions options);

  /// Abandons queued and in-flight work (cooperative cancel, then
  /// join). Admitted events stay journaled; the next construction
  /// replays them. This is the in-process analogue of a crash, which
  /// is exactly what the destructor-vs-recovery tests exploit.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Handle one request. Events: O(1) + one journal fsync, never
  /// blocks on apply work. Read-only requests run on the calling
  /// thread against the applied prefix of the stream, waiting at most
  /// `deadline_ms` for the session's apply lock (`busy` on timeout).
  Response submit(const Request& request);

  /// Apply queued events on the calling thread until the queues are
  /// empty; returns how many were applied. The workers==0 test mode —
  /// with workers it is also safe, competing for the same queues.
  std::size_t pump();

  /// Graceful shutdown (SIGTERM): stop admitting (events get `busy`),
  /// finish every queued apply, checkpoint + compact every healthy
  /// session. Idempotent; submit keeps answering read-only requests.
  void drain();

  ServiceStats stats() const;
  std::vector<std::string> session_ids() const;

  /// Fixpoint digest of every session (drains nothing; callers that
  /// need queues empty call drain()/pump() first). The recovery
  /// identity gates compare these maps across a kill.
  std::map<std::string, std::string> session_digests();

  /// Wait until every admitted event is applied (pumping on the calling
  /// thread when workers == 0). Unlike drain() this does not stop
  /// admission — promotion uses it to finish replicated catch-up before
  /// the standby starts answering as primary.
  void flush();

  // -- replication API (docs/serve.md, Replication & failover) --------------

  /// Where a session's journal stands: its pinned seed, checkpoint seq
  /// and highest journaled seq. nullopt for unknown sessions.
  struct JournalPosition {
    std::uint64_t seed = 0;
    std::uint64_t checkpoint_seq = 0;
    std::uint64_t last_seq = 0;
  };
  std::optional<JournalPosition> journal_position(const std::string& id);

  /// Journal::records_digest under the session's locks — how the
  /// handshake decides whether a standby's tail is a prefix of ours.
  std::optional<std::uint64_t> records_digest(const std::string& id,
                                              std::uint64_t after,
                                              std::uint64_t through);

  /// Live journal records with seq > `after` (what a resuming standby
  /// is missing). Empty for unknown sessions.
  std::vector<JournalRecord> records_after(const std::string& id,
                                           std::uint64_t after);

  /// Everything a standby needs to rebuild a session from our last
  /// checkpoint: the pinned seed, the checkpoint (seq, program) and the
  /// live records above it. Quarantined sessions resync the same way —
  /// their checkpoint predates the poisoning record, so replaying the
  /// tail re-quarantines the replica deterministically.
  struct ResyncSnapshot {
    std::uint64_t seed = 0;
    std::uint64_t base_seq = 0;
    std::string base_program;
    std::vector<JournalRecord> records;  ///< seq > base_seq, in order
  };
  std::optional<ResyncSnapshot> resync_snapshot(const std::string& id);

  /// Apply one record streamed from a primary: journal + fsync it with
  /// the primary-assigned seq, queue the apply, return Ok — the ack the
  /// standby sends upstream. No admission/shedding (the primary already
  /// admitted it; refusing here would silently fork history) and no
  /// quarantine refusal (the primary's journal can extend past a
  /// poisoning record; Session::apply skips them identically on both
  /// sides). A duplicate seq is Ok (idempotent redelivery after
  /// reconnect); a gap is an Error — the stream must reset.
  Response apply_replicated(const std::string& id, std::uint64_t seed,
                            const JournalRecord& record);

  /// Drop a session's state and journal and re-seed it from a primary's
  /// checkpoint snapshot (reset stream). The caller must ensure no
  /// applies are pending for the session (flush() first); throws
  /// otherwise.
  void reset_session(const std::string& id, std::uint64_t seed,
                     std::uint64_t base_seq,
                     const std::string& base_program);

 private:
  struct SessionState {
    SessionState(const std::filesystem::path& root, const std::string& id,
                 std::uint64_t seed, SessionOptions options);

    Journal journal;
    RecoveredSession recovered;  ///< what recover() found at open
    Session session;
    std::uint64_t next_seq;

    /// Serializes Session::apply and read-only access; timed so query
    /// deadlines bound the wait behind a long pipeline run.
    std::timed_mutex apply_mutex;
    /// Serializes journal append (admission) vs checkpoint (worker).
    std::mutex journal_mutex;
    std::deque<JournalRecord> queue;  ///< admitted, not yet applied
    bool scheduled = false;           ///< queued in ready_ / being worked
  };

  SessionState* find_session(const std::string& id);
  SessionState& open_session(const std::string& id);
  /// open_session with an explicit seed — replica streams pin the
  /// *primary's* session seed instead of deriving one locally.
  SessionState& open_session_seeded(const std::string& id,
                                    std::uint64_t seed);
  Response handle_query(const Request& request);
  /// Apply one event of one ready session; returns false when no work
  /// was available. `lock` holds mu_ on entry and exit.
  bool apply_one(std::unique_lock<std::mutex>& lock);
  void maybe_checkpoint(SessionState& state, std::uint64_t threshold);
  void worker_loop();

  ServiceOptions options_;
  SessionOptions session_options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers: ready_ non-empty / stop
  std::condition_variable idle_cv_;   ///< drain: pending reached zero
  std::map<std::string, std::unique_ptr<SessionState>> sessions_;
  std::deque<SessionState*> ready_;
  std::uint64_t pending_ = 0;
  std::uint64_t in_flight_ = 0;  ///< events popped, apply not finished
  bool draining_ = false;
  bool stop_ = false;
  ServiceStats stats_;

  std::atomic<bool> cancel_{false};  ///< PipelineOptions::cancel target
  std::vector<std::thread> workers_;
};

}  // namespace provmark::serve
