// Crash-replay identity fuzz for the streaming service.
//
// Two attack angles on the same claim — a crash at *any* point leaves a
// journal whose replay reaches the exact fixpoint the uninterrupted
// stream reaches:
//
//   * kill-at-every-record-boundary: for generator-seeded streams over
//     all six recorders, truncate the journal at every record boundary
//     (and mid-record, the torn-tail case), recover, feed the remainder
//     of the stream, and demand the reference digest — 25 streams, every
//     boundary each.
//   * real SIGKILL: a forked child runs a threaded service over multiple
//     client sessions and SIGKILLs itself mid-stream; the parent
//     recovers the journal root and checks every session's digest
//     against a fresh service fed the same records.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace provmark::serve {
namespace {

using namespace harness;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(ReplayFuzz, KillAtEveryRecordBoundaryOver25SeededStreams) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("stream seed " + std::to_string(seed));
    const std::string session = "s" + std::to_string(seed);
    const auto stream = make_stream(seed);

    // Reference: the uninterrupted stream.
    TempDir ref_root("ref" + std::to_string(seed));
    std::string reference_digest;
    std::string full_journal;
    {
      Service reference(test_options(ref_root.path));
      for (const auto& [kind, payload] : stream) {
        Response response =
            reference.submit(event_request(session, kind, payload));
        ASSERT_EQ(response.status, Status::Ok) << response.body;
      }
      reference.pump();
      reference_digest = digest_of(reference, session);
      full_journal = slurp(ref_root.path / session / "journal.log");
    }

    // Record boundaries of the journal (offset after header, after
    // record 1, ...).
    std::vector<std::size_t> boundary;
    boundary.push_back(full_journal.find('\n') + 1);
    for (std::size_t pos = boundary[0]; pos < full_journal.size();) {
      pos = full_journal.find('\n', pos) + 1;
      boundary.push_back(pos);
    }
    ASSERT_EQ(boundary.size(), stream.size() + 1);

    for (std::size_t k = 0; k < boundary.size(); ++k) {
      SCOPED_TRACE("crash after " + std::to_string(k) + " records");
      // Two crash images per boundary: a clean cut (the fsync'd prefix)
      // and a torn cut (half the next record made it to disk).
      std::vector<std::string> images;
      images.push_back(full_journal.substr(0, boundary[k]));
      if (k < boundary.size() - 1) {
        const std::size_t half =
            boundary[k] + (boundary[k + 1] - boundary[k]) / 2;
        images.push_back(full_journal.substr(0, half));
      }
      for (std::size_t image = 0; image < images.size(); ++image) {
        TempDir crash_root("crash");
        fs::create_directories(crash_root.path / session);
        spit(crash_root.path / session / "journal.log", images[image]);

        Service recovered(test_options(crash_root.path));
        EXPECT_EQ(recovered.stats().replayed_events, k);
        if (image == 1) {
          EXPECT_GT(recovered.stats().torn_bytes_truncated, 0u);
        }
        // The client retries everything past its last ack; seqs line up
        // with the original stream because recovery restored next_seq.
        for (std::size_t i = k; i < stream.size(); ++i) {
          Response response = recovered.submit(event_request(
              session, stream[i].first, stream[i].second));
          ASSERT_EQ(response.status, Status::Ok) << response.body;
          EXPECT_EQ(response.seq, i + 1);
        }
        recovered.pump();
        EXPECT_EQ(digest_of(recovered, session), reference_digest);
      }
    }
  }
}

TEST(ReplayFuzz, RealSigkillMidStreamRecoversBitIdentically) {
  TempDir root("sigkill");
  TempDir ref_root("sigkill_ref");
  const std::vector<std::string> clients = {"alice", "bob", "carol"};

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: a threaded service under live multi-client load, killed
    // without warning. Everything acked before the kill is journaled.
    ServiceOptions options;
    options.root = root.path;
    options.workers = 2;
    options.checkpoint_every = 0;
    options.pipeline.trials = 2;
    Service service(options);
    for (int i = 0; i < 40; ++i) {
      for (const std::string& client : clients) {
        Request request = event_request(
            client, EventKind::Fact,
            "edge(n" + std::to_string(i) + ",n" +
                std::to_string(i + 1) + ").");
        if (service.submit(request).status != Status::Ok) ::_exit(9);
      }
    }
    for (const std::string& client : clients) {
      Request rule = event_request(client, EventKind::Rule,
                                   "reach(X,Y) :- edge(X,Y).");
      if (service.submit(rule).status != Status::Ok) ::_exit(9);
    }
    // Workers are mid-apply right now; die like a power cut.
    ::raise(SIGKILL);
    ::_exit(8);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Recover the kill site: no checkpoint was taken, so every acked
  // event replays.
  Service recovered(test_options(root.path));
  ASSERT_EQ(recovered.session_ids().size(), clients.size());
  EXPECT_EQ(recovered.stats().replayed_events, 41u * clients.size());
  std::map<std::string, std::string> digests =
      recovered.session_digests();

  // Reference: a fresh service fed exactly the journaled records, in
  // seq order per session — "recovered state == live state" for the
  // acked prefix of every client's stream.
  Service reference(test_options(ref_root.path));
  for (const std::string& client : clients) {
    ASSERT_TRUE(replay_journal(reference, root.path, client)) << client;
  }
  reference.pump();
  for (const std::string& client : clients) {
    EXPECT_EQ(digests[client], digest_of(reference, client))
        << "session " << client;
  }
}

}  // namespace
}  // namespace provmark::serve
