// The streaming service: bounded admission and deterministic shedding,
// quarantine isolation, checkpointing, graceful drain, and the
// abandon-then-recover identity (the in-process crash analogue).
//
// Every test runs workers = 0: admitted events queue until pump(), so
// queue depths — and therefore every shed/busy decision — are exact and
// deterministic, no scheduling involved.
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_suite/generator.h"
#include "bench_suite/program_text.h"
#include "harness.h"
#include "serve/service.h"

namespace provmark::serve {
namespace {

namespace fs = std::filesystem;

using harness::TempDir;

ServiceOptions test_options(const fs::path& root) {
  ServiceOptions options;
  options.root = root;
  options.workers = 0;  // deterministic: apply only on pump()
  options.pipeline.trials = 2;
  return options;
}

Request event(const std::string& session, const std::string& payload,
              Priority priority = Priority::Normal,
              EventKind kind = EventKind::Fact) {
  Request request;
  request.is_event = true;
  request.event = kind;
  request.session = session;
  request.priority = priority;
  request.payload = payload;
  return request;
}

Request query(const std::string& session, QueryKind kind,
              const std::string& payload = "") {
  Request request;
  request.is_event = false;
  request.query = kind;
  request.session = session;
  request.payload = payload;
  return request;
}

TEST(ServiceAdmission, AcksAssignSequentialSeqs) {
  TempDir tmp("seqs");
  Service service(test_options(tmp.path));
  for (std::uint64_t i = 1; i <= 3; ++i) {
    Response response =
        service.submit(event("alice", "edge(a,b)."));
    EXPECT_EQ(response.status, Status::Ok);
    EXPECT_EQ(response.seq, i);
  }
  EXPECT_EQ(service.pump(), 3u);
  EXPECT_EQ(service.stats().applied, 3u);
}

TEST(ServiceAdmission, OversizedPayloadRefusedBeforeJournaling) {
  TempDir tmp("oversize");
  ServiceOptions options = test_options(tmp.path);
  options.max_payload_bytes = 16;
  Service service(options);
  Response response = service.submit(
      event("alice", std::string(17, 'x')));
  EXPECT_EQ(response.status, Status::TooLarge);
  EXPECT_EQ(service.stats().rejected_oversized, 1u);
  EXPECT_EQ(service.stats().admitted, 0u);
  // Nothing was journaled: no session directory exists.
  EXPECT_TRUE(list_sessions(tmp.path).empty());
}

TEST(ServiceShedding, DeterministicWatermarksByPriority) {
  TempDir tmp("shed");
  ServiceOptions options = test_options(tmp.path);
  options.global_queue_cap = 4;
  options.session_queue_cap = 100;
  Service service(options);

  // Backlog 0, 1: every priority admitted.
  EXPECT_EQ(service.submit(event("a", "e(1,2).", Priority::Low)).status,
            Status::Ok);
  EXPECT_EQ(service.submit(event("a", "e(2,3).")).status, Status::Ok);

  // Backlog 2 = cap/2: low sheds, normal and high still admitted.
  EXPECT_EQ(service.submit(event("a", "e(3,4).", Priority::Low)).status,
            Status::Shed);
  EXPECT_EQ(service.submit(event("a", "e(4,5).")).status, Status::Ok);
  EXPECT_EQ(service.submit(event("a", "e(5,6).", Priority::High)).status,
            Status::Ok);

  // Backlog 4 = cap: normal sheds, high gets busy — never silently shed.
  EXPECT_EQ(service.submit(event("a", "e(6,7).")).status, Status::Shed);
  EXPECT_EQ(service.submit(event("a", "e(7,8).", Priority::High)).status,
            Status::Busy);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.shed_low, 1u);
  EXPECT_EQ(stats.shed_normal, 1u);
  EXPECT_EQ(stats.busy, 1u);

  // Shedding never corrupts the survivors: everything admitted applies,
  // to exactly the fixpoint a clean run of only those events reaches.
  EXPECT_EQ(service.pump(), 4u);
  TempDir clean_tmp("shed_clean");
  Service clean(test_options(clean_tmp.path));
  EXPECT_EQ(clean.submit(event("a", "e(1,2).", Priority::Low)).status,
            Status::Ok);
  EXPECT_EQ(clean.submit(event("a", "e(2,3).")).status, Status::Ok);
  EXPECT_EQ(clean.submit(event("a", "e(4,5).")).status, Status::Ok);
  EXPECT_EQ(clean.submit(event("a", "e(5,6).", Priority::High)).status,
            Status::Ok);
  EXPECT_EQ(clean.pump(), 4u);
  EXPECT_EQ(service.submit(query("a", QueryKind::Digest)).body,
            clean.submit(query("a", QueryKind::Digest)).body);
  EXPECT_EQ(service.submit(event("a", "e(8,9).", Priority::Low)).status,
            Status::Ok);
}

TEST(ServiceShedding, SessionQueueCapGivesBackpressure) {
  TempDir tmp("backpressure");
  ServiceOptions options = test_options(tmp.path);
  options.session_queue_cap = 2;
  options.global_queue_cap = 100;
  Service service(options);
  EXPECT_EQ(service.submit(event("a", "e(1,2).")).status, Status::Ok);
  EXPECT_EQ(service.submit(event("a", "e(2,3).")).status, Status::Ok);
  // Session a is full -> busy; session b is unaffected.
  EXPECT_EQ(service.submit(event("a", "e(3,4).")).status, Status::Busy);
  EXPECT_EQ(service.submit(event("b", "e(1,2).")).status, Status::Ok);
  service.pump();
  EXPECT_EQ(service.submit(event("a", "e(3,4).")).status, Status::Ok);
}

TEST(ServiceQueries, FixpointAndDigestAndUnknownSession) {
  TempDir tmp("queries");
  Service service(test_options(tmp.path));
  service.submit(event("alice", "edge(a,b)."));
  service.submit(event("alice", "edge(b,c)."));
  service.submit(event("alice",
                       "path(X,Y) :- edge(X,Y).\n"
                       "path(X,Z) :- path(X,Y), edge(Y,Z).",
                       Priority::Normal, EventKind::Rule));
  service.pump();

  Response bindings =
      service.submit(query("alice", QueryKind::Query, "path(a,X)"));
  EXPECT_EQ(bindings.status, Status::Result);
  EXPECT_EQ(bindings.body, "X=b\nX=c\n");

  Response digest = service.submit(query("alice", QueryKind::Digest));
  EXPECT_EQ(digest.status, Status::Result);
  EXPECT_EQ(digest.body.size(), 16u);

  EXPECT_EQ(service.submit(query("nobody", QueryKind::Digest)).status,
            Status::BadRequest);
  // A malformed pattern throws but never quarantines.
  EXPECT_EQ(
      service.submit(query("alice", QueryKind::Query, "(((")).status,
      Status::BadRequest);
  EXPECT_EQ(service.stats().quarantined_sessions, 0u);
}

// A query's deadline bounds its wait for the session's apply lock, which
// converts it to integer nanoseconds: inf, nan and 1e300 would overflow
// there, so the request line is refused as bad-request instead.
TEST(ServiceQueries, UnboundedDeadlineIsABadRequest) {
  TempDir tmp("deadline");
  Service service(test_options(tmp.path));
  service.submit(event("s", "edge(a,b)."));
  service.pump();
  // A request line as the daemon serves it: parse, then submit.
  auto serve_line = [&service](const std::string& line) {
    Request request;
    try {
      request = parse_request(line);
    } catch (const std::invalid_argument& e) {
      return Response{Status::BadRequest, 0, e.what()};
    }
    return service.submit(request);
  };
  for (const char* deadline : {"inf", "nan", "1e300", "-1", "86400001"}) {
    EXPECT_EQ(serve_line(std::string("digest s ") + deadline).status,
              Status::BadRequest)
        << deadline;
  }
  EXPECT_EQ(serve_line("digest s 86400000").status, Status::Result);
  EXPECT_EQ(serve_line("digest s 0").status, Status::Result);
}

TEST(ServiceQueries, InProcessUnboundedDeadlineIsABadRequest) {
  // The in-process API checks the deadline too, before the lock wait
  // converts it to integer nanoseconds.
  TempDir tmp("deadline_in_process");
  Service service(test_options(tmp.path));
  service.submit(event("s", "edge(a,b)."));
  service.pump();
  Request digest = query("s", QueryKind::Digest);
  for (double ms : {std::numeric_limits<double>::infinity(),
                    -std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::quiet_NaN(), 1e300, -1.0,
                    kMaxDeadlineMs + 1}) {
    digest.deadline_ms = ms;
    const Response response = service.submit(digest);
    EXPECT_EQ(response.status, Status::BadRequest) << ms;
    EXPECT_NE(response.body.find("deadline-ms"), std::string::npos) << ms;
  }
  for (double ms : {0.0, kMaxDeadlineMs}) {
    digest.deadline_ms = ms;
    EXPECT_EQ(service.submit(digest).status, Status::Result) << ms;
  }
}

TEST(ServiceProtocol, FieldsAreSeparatedBySpacesOnly) {
  // util::FieldReader's rule on the wire: runs of spaces separate
  // fields; a tab is part of its field, so it is neither trimmed nor a
  // separator.
  EXPECT_EQ(parse_response("ok 5").seq, 5u);
  EXPECT_EQ(parse_response("ok   5").seq, 5u);
  EXPECT_THROW(parse_response("ok \t5"), std::invalid_argument);
  EXPECT_THROW(parse_response("ok 5\t"), std::invalid_argument);
  EXPECT_EQ(parse_request("  digest  s  250 ").deadline_ms, 250);
  EXPECT_THROW(parse_request("ping\t"), std::invalid_argument);
  EXPECT_THROW(parse_request("digest s\t250"), std::invalid_argument);
}

TEST(ServiceQuarantine, PoisonedSessionIsolatedFromNeighbours) {
  TempDir tmp("quarantine");
  Service service(test_options(tmp.path));
  service.submit(event("victim", "edge(a,b)."));
  service.submit(event("victim", "this is ( not datalog"));
  service.submit(event("healthy", "edge(a,b)."));
  service.pump();

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.quarantined_sessions, 1u);

  // The poisoned session refuses further events with a typed status…
  Response refused = service.submit(event("victim", "edge(b,c)."));
  EXPECT_EQ(refused.status, Status::Quarantined);
  EXPECT_FALSE(refused.body.empty());
  EXPECT_EQ(service.stats().rejected_quarantined, 1u);

  // …while its neighbour streams on untouched.
  EXPECT_EQ(service.submit(event("healthy", "edge(b,c).")).status,
            Status::Ok);
  service.pump();
  Response dump = service.submit(query("healthy", QueryKind::Dump));
  EXPECT_EQ(dump.status, Status::Result);
  EXPECT_EQ(dump.body, "edge(a,b)\nedge(b,c)\n");
}

TEST(ServiceQuarantine, ReplayRequarantinesDeterministically) {
  TempDir tmp("requarantine");
  std::string reason;
  {
    Service service(test_options(tmp.path));
    service.submit(event("victim", "edge(a,b)."));
    service.submit(event("victim", "this is ( not datalog"));
    service.pump();
    reason = service.submit(event("victim", "x(y).")).body;
    ASSERT_FALSE(reason.empty());
  }
  // The poisoning event is journaled (it was acked) and the session was
  // never checkpointed past it, so recovery replays it and lands in the
  // same quarantine with the same typed reason.
  Service recovered(test_options(tmp.path));
  Response refused = recovered.submit(event("victim", "x(y)."));
  EXPECT_EQ(refused.status, Status::Quarantined);
  EXPECT_EQ(refused.body, reason);
  // A quarantined session must never be checkpointed (compaction would
  // drop the poisoning record and "cure" it on restart, forking
  // history).
  recovered.drain();
  EXPECT_FALSE(
      fs::exists(tmp.path / "victim" / "checkpoint.dlog"));
}

TEST(ServiceRecovery, AbandonedEventsReplayToIdenticalFixpoint) {
  // The destructor abandons queued work — the in-process analogue of a
  // crash right after the ack. A fresh Service over the same root must
  // replay the journal into the exact fixpoint a never-interrupted
  // service reaches.
  TempDir tmp_crash("abandon");
  TempDir tmp_ref("reference");
  const std::vector<std::string> facts = {
      "edge(a,b).", "edge(b,c).", "edge(c,d).", "edge(d,a).",
  };
  const std::string rules =
      "path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z).";

  std::string reference_digest;
  {
    Service reference(test_options(tmp_ref.path));
    for (const std::string& fact : facts) {
      reference.submit(event("alice", fact));
    }
    reference.submit(
        event("alice", rules, Priority::Normal, EventKind::Rule));
    reference.pump();
    reference_digest =
        reference.submit(query("alice", QueryKind::Digest)).body;
  }

  {
    Service crashed(test_options(tmp_crash.path));
    for (const std::string& fact : facts) {
      crashed.submit(event("alice", fact));
    }
    crashed.submit(
        event("alice", rules, Priority::Normal, EventKind::Rule));
    crashed.pump();  // apply a prefix…
    crashed.submit(event("alice", "edge(a,b)."));  // …and abandon this
  }
  {
    // But the reference needs that last event too.
    Service reference(test_options(tmp_ref.path));
    reference.submit(event("alice", "edge(a,b)."));
    reference.pump();
    reference_digest =
        reference.submit(query("alice", QueryKind::Digest)).body;
  }

  Service recovered(test_options(tmp_crash.path));
  EXPECT_GE(recovered.stats().replayed_events, 1u);
  EXPECT_EQ(recovered.submit(query("alice", QueryKind::Digest)).body,
            reference_digest);
}

TEST(ServiceRecovery, RunEventsReplaySeedIdentically) {
  // A run event executes the full pipeline with a seed derived from
  // (session seed, seq); replaying the journal must re-run it into
  // byte-identical asserted facts.
  bench_suite::GeneratorOptions gen;
  gen.seed = 11;
  gen.scale = 3;
  gen.depth = 1;
  gen.fan_out = 1;
  const std::string payload =
      "opus\n" +
      bench_suite::format_program(bench_suite::generate_program(gen));

  TempDir tmp("runreplay");
  std::string live_digest;
  {
    Service service(test_options(tmp.path));
    service.submit(event("alice", payload, Priority::Normal,
                         EventKind::Run));
    service.pump();
    live_digest = service.submit(query("alice", QueryKind::Digest)).body;
    ASSERT_EQ(live_digest.size(), 16u);
    // Destructor abandons nothing here (all applied) — but the journal
    // still holds the run record: no checkpoint was taken.
  }
  Service recovered(test_options(tmp.path));
  EXPECT_EQ(recovered.stats().replayed_events, 1u);
  EXPECT_EQ(recovered.submit(query("alice", QueryKind::Digest)).body,
            live_digest);
}

TEST(ServiceCheckpoint, DrainCheckpointsSoRestartReplaysNothing) {
  TempDir tmp("drain");
  std::string digest;
  {
    Service service(test_options(tmp.path));
    service.submit(event("alice", "edge(a,b)."));
    service.submit(event("bob", "edge(b,c)."));
    service.pump();
    digest = service.submit(query("alice", QueryKind::Digest)).body;
    service.drain();
    EXPECT_GE(service.stats().checkpoints, 2u);
    // Draining stops admission…
    EXPECT_EQ(service.submit(event("alice", "edge(x,y).")).status,
              Status::Busy);
    // …but read-only requests still answer.
    EXPECT_EQ(service.submit(query("alice", QueryKind::Digest)).status,
              Status::Result);
  }
  Service recovered(test_options(tmp.path));
  EXPECT_EQ(recovered.stats().replayed_events, 0u);
  EXPECT_EQ(recovered.submit(query("alice", QueryKind::Digest)).body,
            digest);
}

TEST(ServiceCheckpoint, PeriodicCheckpointBoundsJournalGrowth) {
  TempDir tmp("periodic");
  ServiceOptions options = test_options(tmp.path);
  options.checkpoint_every = 4;
  {
    Service service(options);
    for (int i = 0; i < 10; ++i) {
      service.submit(event("alice", "edge(a,b)."));
      service.pump();
    }
    EXPECT_GE(service.stats().checkpoints, 2u);
  }
  EXPECT_TRUE(fs::exists(tmp.path / "alice" / "checkpoint.dlog"));
  // The compacted journal tail replays at most checkpoint_every events.
  Service recovered(options);
  EXPECT_LE(recovered.stats().replayed_events, 4u);
  EXPECT_EQ(
      recovered.submit(query("alice", QueryKind::Dump)).body,
      "edge(a,b)\n");
}

TEST(ServiceWorkers, ThreadedModeReachesSameFixpointAsPump) {
  TempDir tmp_threaded("threaded");
  TempDir tmp_pump("pumped");
  std::string threaded_digest;
  {
    ServiceOptions options = test_options(tmp_threaded.path);
    options.workers = 2;
    Service service(options);
    for (int i = 0; i < 8; ++i) {
      Response response = service.submit(
          event("alice", "edge(n" + std::to_string(i) + ",n" +
                             std::to_string(i + 1) + ")."));
      ASSERT_EQ(response.status, Status::Ok);
    }
    service.submit(event("alice", "path(X,Y) :- edge(X,Y).",
                         Priority::Normal, EventKind::Rule));
    service.drain();  // barrier: every queued apply finished
    threaded_digest =
        service.submit(query("alice", QueryKind::Digest)).body;
  }
  Service pumped(test_options(tmp_pump.path));
  for (int i = 0; i < 8; ++i) {
    pumped.submit(event("alice", "edge(n" + std::to_string(i) + ",n" +
                                     std::to_string(i + 1) + ")."));
  }
  pumped.submit(event("alice", "path(X,Y) :- edge(X,Y).",
                      Priority::Normal, EventKind::Rule));
  pumped.pump();
  EXPECT_EQ(pumped.submit(query("alice", QueryKind::Digest)).body,
            threaded_digest);
}

}  // namespace
}  // namespace provmark::serve
