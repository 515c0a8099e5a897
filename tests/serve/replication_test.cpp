// Replication + hot-standby failover tests (docs/serve.md).
//
// The claim under test: kill the primary at ANY acked-record boundary,
// promote the standby, and it answers every session query
// bit-identically to a fresh daemon fed the same acked events. Three
// attack angles:
//
//   * in-process shuttle: a primary Service and a replica Service wired
//     through PrimaryReplicator/ReplicaReplicator with the wire lines
//     shuttled by the test — failover identity is asserted after EVERY
//     record across generator-seeded streams over all six recorders,
//     plus reconnect/resume, checkpoint-reset resync, divergence
//     quarantine and replica-ahead quarantine.
//   * real daemons: two forked `run_daemon` processes over AF_UNIX,
//     SIGKILL the primary mid-replication, `promote` the standby, and
//     compare digests against a reference service fed the dead
//     primary's journal.
//   * sync-mode torn ack: the standby crashes (fault-injected _exit)
//     after journaling a record but before acking it — the client sees
//     `busy`, yet both journals hold the record, and the restarted
//     standby resyncs to identity.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"
#include "serve/replicate.h"

namespace provmark::serve {
namespace {

using namespace harness;

/// A primary Service + replica Service wired through the replicators,
/// with the wire shuttled in-process by the test — the deterministic
/// single-threaded twin of the two-daemon setup.
struct ReplPair {
  std::atomic<PrimaryReplicator*> primary_ptr{nullptr};
  std::atomic<ReplicaReplicator*> replica_ptr{nullptr};
  std::unique_ptr<Service> primary_svc;
  std::unique_ptr<Service> replica_svc;
  std::unique_ptr<PrimaryReplicator> primary;
  std::unique_ptr<ReplicaReplicator> replica;

  ReplPair(const fs::path& primary_root, const fs::path& replica_root,
           ReplicationConfig config = {},
           std::uint64_t primary_checkpoint_every = 0,
           std::uint64_t replica_checkpoint_every = 0) {
    ServiceOptions po = test_options(primary_root);
    po.checkpoint_every = primary_checkpoint_every;
    po.on_record = [this](const std::string& s, const JournalRecord& r) {
      if (PrimaryReplicator* p = primary_ptr.load()) p->on_record(s, r);
    };
    po.on_checkpoint = [this](const std::string& s, std::uint64_t q,
                              const std::string& d) {
      if (PrimaryReplicator* p = primary_ptr.load()) p->on_checkpoint(s, q, d);
    };
    primary_svc = std::make_unique<Service>(po);

    ServiceOptions ro = test_options(replica_root);
    ro.checkpoint_every = replica_checkpoint_every;
    ro.on_applied = [this](const std::string& s, std::uint64_t q,
                           const std::function<std::string()>& dn) {
      if (ReplicaReplicator* r = replica_ptr.load()) r->on_applied(s, q, dn);
    };
    ro.on_checkpoint = [this](const std::string& s, std::uint64_t q,
                              const std::string& d) {
      if (ReplicaReplicator* r = replica_ptr.load()) r->on_checkpoint(s, q, d);
    };
    replica_svc = std::make_unique<Service>(ro);

    primary = std::make_unique<PrimaryReplicator>(*primary_svc, config);
    replica = std::make_unique<ReplicaReplicator>(*replica_svc, config);
    primary_ptr.store(primary.get());
    replica_ptr.store(replica.get());
  }

  void connect() {
    primary->on_replica_connected();
    replica->on_link_connected();
    shuttle();
  }

  void disconnect() {
    primary->on_replica_disconnected();
    replica->on_link_disconnected();
  }

  /// Move wire lines both ways (and pump the replica's applies) until
  /// quiescent.
  void shuttle() {
    for (int round = 0; round < 128; ++round) {
      primary->flush_pending_resets();
      std::string down = primary->take_output();
      std::string up = replica->take_output();
      replica_svc->pump();
      if (down.empty() && up.empty()) {
        if (primary->take_output().empty() && replica->take_output().empty()) {
          return;
        }
        continue;
      }
      std::string line;
      while (next_line(down, line)) {
        if (!line.empty()) replica->handle_line(line);
      }
      while (next_line(up, line)) {
        if (!line.empty()) primary->handle_line(line);
      }
      replica_svc->pump();
    }
    FAIL() << "replication shuttle did not quiesce";
  }
};

// ---------------------------------------------------------------------------
// In-process failover identity

TEST(Replication, FailoverIdentityAtEveryRecordBoundary) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("stream seed " + std::to_string(seed));
    const std::string session = "s" + std::to_string(seed);
    const auto stream = make_stream(seed);

    TempDir ref_root("ref" + std::to_string(seed));
    TempDir p_root("p" + std::to_string(seed));
    TempDir r_root("r" + std::to_string(seed));
    Service reference(test_options(ref_root.path));
    ReplPair pair(p_root.path, r_root.path);
    pair.connect();

    for (std::size_t k = 0; k < stream.size(); ++k) {
      SCOPED_TRACE("record boundary " + std::to_string(k + 1));
      Response ref_response = reference.submit(
          event_request(session, stream[k].first, stream[k].second));
      ASSERT_EQ(ref_response.status, Status::Ok);
      reference.pump();

      Response response = pair.primary_svc->submit(
          event_request(session, stream[k].first, stream[k].second));
      ASSERT_EQ(response.status, Status::Ok) << response.body;
      ASSERT_EQ(response.seq, k + 1);
      pair.primary_svc->pump();
      pair.shuttle();

      // This is the kill point: if the primary died right now, the
      // standby would flush and serve. Its session must already be
      // bit-identical to the reference fed the same acked prefix.
      EXPECT_EQ(pair.primary->lag_events(), 0u);
      pair.replica_svc->flush();
      EXPECT_EQ(digest_of(*pair.replica_svc, session),
                digest_of(reference, session));
    }

    // Promote for real: drop the link, keep serving on the replica —
    // post-promotion events must extend the same history.
    pair.disconnect();
    Response post = pair.replica_svc->submit(event_request(
        session, EventKind::Fact, "edge(post,promotion)."));
    ASSERT_EQ(post.status, Status::Ok) << post.body;
    EXPECT_EQ(post.seq, stream.size() + 1);
    pair.replica_svc->pump();
    Response ref_post = reference.submit(event_request(
        session, EventKind::Fact, "edge(post,promotion)."));
    ASSERT_EQ(ref_post.status, Status::Ok);
    reference.pump();
    EXPECT_EQ(digest_of(*pair.replica_svc, session),
              digest_of(reference, session));
  }
}

TEST(Replication, ResumeAfterReconnectShipsOnlyTheMissingTail) {
  TempDir p_root("resume_p");
  TempDir r_root("resume_r");
  ReplPair pair(p_root.path, r_root.path);
  pair.connect();

  const std::string session = "s";
  ASSERT_EQ(pair.primary_svc
                ->submit(event_request(session, EventKind::Fact,
                                       "edge(a,b)."))
                .status,
            Status::Ok);
  ASSERT_EQ(pair.primary_svc
                ->submit(event_request(session, EventKind::Fact,
                                       "edge(b,c)."))
                .status,
            Status::Ok);
  pair.primary_svc->pump();
  pair.shuttle();
  ASSERT_EQ(pair.replica_svc->journal_position(session)->last_seq, 2u);

  // Link drops; the primary keeps admitting.
  pair.disconnect();
  ASSERT_EQ(pair.primary_svc
                ->submit(event_request(session, EventKind::Fact,
                                       "edge(c,d)."))
                .status,
            Status::Ok);
  ASSERT_EQ(pair.primary_svc
                ->submit(event_request(session, EventKind::Rule,
                                       "path(X,Y) :- edge(X,Y)."))
                .status,
            Status::Ok);
  pair.primary_svc->pump();

  // Reconnect: the handshake digest proves the standby's 2 records are
  // our prefix, so only records 3..4 ship (resume, not reset).
  pair.connect();
  pair.replica_svc->flush();
  auto position = pair.replica_svc->journal_position(session);
  ASSERT_TRUE(position.has_value());
  EXPECT_EQ(position->last_seq, 4u);
  EXPECT_EQ(position->checkpoint_seq, 0u);  // no reset happened
  EXPECT_EQ(digest_of(*pair.replica_svc, session),
            digest_of(*pair.primary_svc, session));
  EXPECT_TRUE(pair.replica->quarantined_streams().empty());
}

TEST(Replication, ResetResyncsFromCheckpointAfterCompaction) {
  TempDir p_root("reset_p");
  TempDir r_root("reset_r");
  // Primary checkpoints + compacts every 2 applies: after a disconnect
  // it can no longer prove the standby's tail is a prefix, so the
  // handshake must fall back to a checkpoint reset.
  ReplPair pair(p_root.path, r_root.path, ReplicationConfig{},
                /*primary_checkpoint_every=*/2);
  pair.connect();

  const std::string session = "s";
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(pair.primary_svc
                  ->submit(event_request(
                      session, EventKind::Fact,
                      "edge(a" + std::to_string(i) + ",b)."))
                  .status,
              Status::Ok);
  }
  pair.primary_svc->pump();
  pair.shuttle();

  pair.disconnect();
  for (int i = 2; i < 6; ++i) {
    ASSERT_EQ(pair.primary_svc
                  ->submit(event_request(
                      session, EventKind::Fact,
                      "edge(a" + std::to_string(i) + ",b)."))
                  .status,
              Status::Ok);
  }
  pair.primary_svc->pump();  // checkpoints at 4 and 6, journal compacted
  ASSERT_GE(pair.primary_svc->journal_position(session)->checkpoint_seq, 4u);

  pair.connect();
  pair.replica_svc->flush();
  auto position = pair.replica_svc->journal_position(session);
  ASSERT_TRUE(position.has_value());
  EXPECT_EQ(position->last_seq, 6u);
  // The reset shipped the primary's checkpoint as the new base.
  EXPECT_GE(position->checkpoint_seq, 4u);
  EXPECT_EQ(digest_of(*pair.replica_svc, session),
            digest_of(*pair.primary_svc, session));
  EXPECT_TRUE(pair.replica->quarantined_streams().empty());
}

TEST(Replication, DivergenceQuarantinesTheStreamWithATypedReason) {
  TempDir p_root("div_p");
  TempDir r_root("div_r");
  ReplPair pair(p_root.path, r_root.path);
  pair.connect();

  const std::string session = "s";
  ASSERT_EQ(pair.primary_svc
                ->submit(event_request(session, EventKind::Fact,
                                       "edge(a,b)."))
                .status,
            Status::Ok);
  pair.primary_svc->pump();
  pair.shuttle();

  // Forge a checkpoint-digest exchange the standby can never satisfy:
  // a pending check at a future seq with a wrong digest.
  pair.replica->handle_line("repl-check s 2 0000000000000bad");
  ASSERT_EQ(pair.primary_svc
                ->submit(event_request(session, EventKind::Fact,
                                       "edge(b,c)."))
                .status,
            Status::Ok);
  pair.primary_svc->pump();
  pair.shuttle();

  auto quarantined = pair.replica->quarantined_streams();
  ASSERT_EQ(quarantined.size(), 1u);
  ASSERT_TRUE(quarantined.count(session));
  EXPECT_NE(quarantined[session].find("digest mismatch"), std::string::npos)
      << quarantined[session];
  // The repl-diverged report reached the primary and poisoned its side
  // of the stream too: no further records flow.
  EXPECT_NE(pair.primary->stats_text().find("repl_quarantined_streams=1"),
            std::string::npos);
  ASSERT_EQ(pair.primary_svc
                ->submit(event_request(session, EventKind::Fact,
                                       "edge(c,d)."))
                .status,
            Status::Ok);
  pair.primary_svc->pump();
  pair.shuttle();
  // The standby never saw record 3.
  EXPECT_EQ(pair.replica_svc->journal_position(session)->last_seq, 2u);
}

TEST(Replication, ReplicaAheadIsQuarantinedNotMerged) {
  TempDir p_root("ahead_p");
  TempDir r_root("ahead_r");
  const std::string session = "s";
  // Pre-seed both journals out-of-band: the standby has MORE acked
  // records than the primary — a history fork no resync may merge.
  {
    Service primary(test_options(p_root.path));
    ASSERT_EQ(primary
                  .submit(event_request(session, EventKind::Fact,
                                        "edge(a,b)."))
                  .status,
              Status::Ok);
    primary.pump();
    primary.drain();
  }
  {
    Service replica(test_options(r_root.path));
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(replica
                    .submit(event_request(
                        session, EventKind::Fact,
                        "edge(a" + std::to_string(i) + ",b)."))
                    .status,
                Status::Ok);
    }
    replica.pump();
    replica.drain();
  }
  ReplPair pair(p_root.path, r_root.path);
  pair.connect();
  EXPECT_NE(pair.primary->stats_text().find("repl_quarantined_streams=1"),
            std::string::npos)
      << pair.primary->stats_text();
  // Nothing flowed: the standby's journal is untouched.
  EXPECT_EQ(pair.replica_svc->journal_position(session)->last_seq, 3u);
}

// In sync mode a client's ack is released once the standby's cumulative
// ack covers its seq, so an ack seq must be a plain decimal number: a
// malformed one is refused and releases nothing.
TEST(Replication, MalformedAckSeqIsRefusedAndReleasesNothing) {
  TempDir root("bad_ack");
  Service service(test_options(root.path));
  ReplicationConfig config;
  config.sync_mode = true;
  PrimaryReplicator primary(service, config);
  for (const char* seq :
       {"-1", "+1", "\t1", "1x", "18446744073709551616", "0x10", ""}) {
    EXPECT_THROW(primary.handle_line(std::string("repl-ack s ") + seq),
                 std::invalid_argument)
        << "'" << seq << "'";
    EXPECT_EQ(primary.ack_state("s", 1'000'000),
              PrimaryReplicator::AckState::Pending)
        << "'" << seq << "'";
  }
  primary.handle_line("repl-ack s 18446744073709551615");
  EXPECT_EQ(primary.ack_state("s", 1'000'000),
            PrimaryReplicator::AckState::Acked);

  EXPECT_THROW(parse_response("ok abc"), std::invalid_argument);
  EXPECT_THROW(parse_response("ok -1"), std::invalid_argument);
  EXPECT_EQ(parse_response("ok 7").seq, 7u);
}

TEST(Replication, RunsOfSpacesSeparateFieldsOnTheLink) {
  // The link reads its lines by the same field rule as the wire: a run of
  // spaces is one separator (an empty field used to refuse the line).
  TempDir root("spaced_ack");
  Service service(test_options(root.path));
  ReplicationConfig config;
  config.sync_mode = true;
  PrimaryReplicator primary(service, config);
  primary.handle_line("repl-ack  s   5 ");
  EXPECT_EQ(primary.ack_state("s", 5), PrimaryReplicator::AckState::Acked);
  EXPECT_THROW(primary.handle_line("repl-ack s 6 7"), std::invalid_argument);
  EXPECT_EQ(primary.ack_state("s", 6), PrimaryReplicator::AckState::Pending);
}

// ---------------------------------------------------------------------------
// Service-level apply_replicated contract

TEST(Replication, ApplyReplicatedDupIsIdempotentGapAndSeedMismatchRefuse) {
  TempDir root("applyrepl");
  Service service(test_options(root.path));
  const std::uint64_t seed = 777;

  JournalRecord r1{1, EventKind::Fact, Priority::Normal, "edge(a,b)."};
  Response first = service.apply_replicated("s", seed, r1);
  ASSERT_EQ(first.status, Status::Ok);
  EXPECT_EQ(first.seq, 1u);

  // Duplicate redelivery (reconnect overlap): Ok, not an error — the
  // standby just re-acks.
  Response dup = service.apply_replicated("s", seed, r1);
  EXPECT_EQ(dup.status, Status::Ok);
  EXPECT_EQ(dup.body, "duplicate");

  // A gap must refuse: applying it would fork history.
  JournalRecord r3{3, EventKind::Fact, Priority::Normal, "edge(c,d)."};
  Response gap = service.apply_replicated("s", seed, r3);
  EXPECT_EQ(gap.status, Status::Error);
  EXPECT_NE(gap.body.find("gap"), std::string::npos) << gap.body;

  // A seed mismatch must refuse: run events would diverge silently.
  JournalRecord r2{2, EventKind::Fact, Priority::Normal, "edge(b,c)."};
  Response wrong_seed = service.apply_replicated("s", seed + 1, r2);
  EXPECT_EQ(wrong_seed.status, Status::Error);
  EXPECT_NE(wrong_seed.body.find("seed mismatch"), std::string::npos)
      << wrong_seed.body;

  // The journal still only holds record 1.
  service.pump();
  EXPECT_EQ(service.journal_position("s")->last_seq, 1u);
  EXPECT_EQ(service.journal_position("s")->seed, seed);
}

// ---------------------------------------------------------------------------
// Real two-daemon failover

/// A daemon over `root` at `socket`, a standby of `replica_of` when
/// set, holding acks for the standby when `sync`.
Child spawn_daemon(const fs::path& root, const std::string& socket,
                   const std::string& replica_of, bool sync,
                   const std::string& fault_spec) {
  DaemonOptions options = daemon_options(root, socket);
  options.replica_of = replica_of;
  options.repl_sync = sync;
  return fork_daemon(options, fault_spec);
}

TEST(ReplicationDaemon, SigkillPrimaryPromoteStandbyServesIdentically) {
  TempDir dir("daemon");
  const std::string p_sock = (dir.path / "p.sock").string();
  const std::string r_sock = (dir.path / "r.sock").string();
  const fs::path p_root = dir.path / "pj";
  const fs::path r_root = dir.path / "rj";

  Child primary = spawn_daemon(p_root, p_sock, "", false, "");
  ASSERT_TRUE(primary.running());
  ASSERT_TRUE(wait_until([&] { return daemon_ready(p_sock); }, 10000));
  Child replica = spawn_daemon(r_root, r_sock, p_sock, false, "");
  ASSERT_TRUE(replica.running());
  ASSERT_TRUE(wait_until([&] { return daemon_ready(r_sock); }, 10000));

  // Two generator-seeded streams, mid-replication: the primary dies
  // while the standby is still tailing.
  const std::vector<std::string> sessions = {"s3", "s4"};
  for (std::uint64_t seed : {3, 4}) {
    const std::string session = "s" + std::to_string(seed);
    for (const auto& [kind, payload] : make_stream(seed)) {
      const std::string line =
          feed_one(p_sock, format_request(event_request(session, kind,
                                                        payload)));
      ASSERT_EQ(line.rfind("ok ", 0), 0u) << line;
    }
  }
  // Health-gated catch-up: assert lag, never sleep.
  ASSERT_TRUE(wait_until([&] { return caught_up(p_sock); }, 15000));

  const int status = primary.kill();
  ASSERT_TRUE(WIFSIGNALED(status));

  ASSERT_EQ(feed_one(r_sock, "promote"), "result promoted");
  ASSERT_EQ(feed_one(r_sock, "promote"), "result already-primary");

  // Reference: a fresh service fed exactly the dead primary's journal.
  {
    TempDir ref_dir("daemon_ref");
    Service reference(test_options(ref_dir.path));
    ASSERT_EQ(list_sessions(p_root), sessions);
    for (const std::string& session : sessions) {
      ASSERT_TRUE(replay_journal(reference, p_root, session)) << session;
    }
    reference.pump();
    expect_digests_match(reference, sessions, r_sock);
  }
  // The promoted daemon accepts new events.
  EXPECT_EQ(feed_one(r_sock, "event s3 fact normal edge(post,kill)."),
            "ok 6");

  EXPECT_EQ(replica.terminate(), 0);
}

TEST(ReplicationDaemon, SyncModeTornAckIsBusyYetDurableOnBothSides) {
  TempDir dir("sync");
  const std::string p_sock = (dir.path / "p.sock").string();
  const std::string r_sock = (dir.path / "r.sock").string();
  const fs::path p_root = dir.path / "pj";
  const fs::path r_root = dir.path / "rj";

  Child primary = spawn_daemon(p_root, p_sock, "", /*sync=*/true, "");
  ASSERT_TRUE(primary.running());
  ASSERT_TRUE(wait_until([&] { return daemon_ready(p_sock); }, 10000));

  // Sync mode with no standby: events are refused un-journaled.
  ASSERT_EQ(feed_one(p_sock, "event s fact normal edge(x,y)."), "busy");

  // Standby crashes after journaling its 3rd record, BEFORE acking it —
  // the torn-ack point.
  Child replica = spawn_daemon(r_root, r_sock, p_sock, false,
                               "replica-crash:after-records=3");
  ASSERT_TRUE(replica.running());
  ASSERT_TRUE(wait_until(
      [&] { return stat(stats_of(p_sock), "repl_connected") == 1; }, 10000));

  ASSERT_EQ(feed_one(p_sock, "event s fact normal edge(a,b)."), "ok 1");
  ASSERT_EQ(feed_one(p_sock, "event s fact normal edge(b,c)."), "ok 2");
  // Record 3: journaled on both sides, never acked — the client gets
  // `busy`, which is a valid history (journaled-but-unacked).
  ASSERT_EQ(feed_one(p_sock, "event s fact normal edge(c,d)."), "busy");

  const int status = replica.wait();
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), util::fault::kCrashExitCode);

  // Both journals hold all 3 records: the acked prefix survived AND
  // the torn ack lost nothing.
  {
    Journal journal(p_root, "s", 0);
    EXPECT_EQ(journal.recover().records.size(), 3u);
  }
  {
    Journal journal(r_root, "s", 0);
    EXPECT_EQ(journal.recover().records.size(), 3u);
  }

  // A restarted standby resyncs from its own journal and sync mode
  // acks again.
  Child replica2 = spawn_daemon(r_root, r_sock, p_sock, false, "");
  ASSERT_TRUE(replica2.running());
  ASSERT_TRUE(wait_until([&] { return caught_up(p_sock); }, 15000));
  ASSERT_EQ(feed_one(p_sock, "event s fact normal edge(d,e)."), "ok 4");

  EXPECT_EQ(primary.terminate(), 0);
  EXPECT_EQ(replica2.terminate(), 0);
}

}  // namespace
}  // namespace provmark::serve
