// The serve journal: record framing, append/recover round trips,
// torn-tail truncation at every byte offset, and the checkpoint +
// compaction cycle.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "serve/journal.h"

namespace provmark::serve {
namespace {

namespace fs = std::filesystem;

using harness::TempDir;

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

std::vector<JournalRecord> sample_records() {
  return {
      {1, EventKind::Fact, Priority::Normal, "edge(a,b)."},
      {2, EventKind::Fact, Priority::Low, "edge(b,c)."},
      {3, EventKind::Rule, Priority::High,
       "path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z)."},
      {4, EventKind::Run, Priority::Normal, "spade\nname close\n"},
      {5, EventKind::Fact, Priority::Normal, ""},  // empty payload legal
  };
}

TEST(JournalRecordFraming, RoundTripsEveryKindAndPriority) {
  for (const JournalRecord& record : sample_records()) {
    const JournalRecord back = parse_record(format_record(record));
    EXPECT_EQ(back.seq, record.seq);
    EXPECT_EQ(back.kind, record.kind);
    EXPECT_EQ(back.priority, record.priority);
    EXPECT_EQ(back.payload, record.payload);
  }
}

TEST(JournalRecordFraming, RejectsTamperedLines) {
  const std::string good = format_record(
      {7, EventKind::Fact, Priority::Normal, "edge(a,b)."});
  EXPECT_NO_THROW(parse_record(good));
  // Flip any single byte: length or checksum must catch it.
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = bad[i] == 'x' ? 'y' : 'x';
    if (bad == good) continue;
    EXPECT_THROW(parse_record(bad), std::runtime_error)
        << "flip at " << i << ": " << bad;
  }
  EXPECT_THROW(parse_record(""), std::runtime_error);
  EXPECT_THROW(parse_record("R 1 fact normal"), std::runtime_error);
}

TEST(Journal, AppendThenRecoverRoundTrips) {
  TempDir tmp("roundtrip");
  const std::vector<JournalRecord> records = sample_records();
  {
    Journal journal(tmp.path, "alice", 99);
    EXPECT_EQ(journal.recover().records.size(), 0u);
    for (const JournalRecord& record : records) journal.append(record);
  }
  Journal journal(tmp.path, "alice", 0);  // seed comes from the header
  RecoveredSession recovered = journal.recover();
  EXPECT_EQ(recovered.seed, 99u);
  EXPECT_EQ(recovered.checkpoint_seq, 0u);
  EXPECT_EQ(recovered.torn_bytes, 0u);
  ASSERT_EQ(recovered.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(recovered.records[i].seq, records[i].seq);
    EXPECT_EQ(recovered.records[i].payload, records[i].payload);
  }
}

TEST(Journal, TruncationAtEveryByteRecoversLongestGoodPrefix) {
  // Simulate a crash after any number of journal bytes: recovery must
  // keep exactly the records whose full line (newline included) made it
  // to disk, truncate the rest, and leave a journal that accepts
  // further appends.
  TempDir tmp("torn");
  const std::vector<JournalRecord> records = sample_records();
  {
    Journal journal(tmp.path, "alice", 7);
    for (const JournalRecord& record : records) journal.append(record);
  }
  const fs::path log = tmp.path / "alice" / "journal.log";
  const std::string full = slurp(log);
  const std::size_t header_end = full.find('\n') + 1;

  // Record boundaries: byte offsets where i whole records are on disk.
  std::vector<std::size_t> boundary;
  boundary.push_back(header_end);
  for (std::size_t pos = header_end; pos < full.size();) {
    pos = full.find('\n', pos) + 1;
    boundary.push_back(pos);
  }
  ASSERT_EQ(boundary.size(), records.size() + 1);

  for (std::size_t cut = header_end; cut <= full.size(); ++cut) {
    spit(log, full.substr(0, cut));
    Journal journal(tmp.path, "alice", 0);
    RecoveredSession recovered = journal.recover();
    // How many whole records fit in `cut` bytes?
    std::size_t whole = 0;
    while (whole + 1 < boundary.size() && boundary[whole + 1] <= cut) {
      ++whole;
    }
    EXPECT_EQ(recovered.records.size(), whole) << "cut=" << cut;
    EXPECT_EQ(recovered.torn_bytes, cut - boundary[whole])
        << "cut=" << cut;
    // The truncated journal is a valid log again: append still works
    // and a second recovery sees no torn bytes.
    journal.append({99, EventKind::Fact, Priority::Normal, "tail(x)."});
    Journal reopened(tmp.path, "alice", 0);
    RecoveredSession again = reopened.recover();
    EXPECT_EQ(again.torn_bytes, 0u);
    ASSERT_EQ(again.records.size(), whole + 1);
    EXPECT_EQ(again.records.back().payload, "tail(x).");
  }
}

TEST(Journal, CheckpointCompactsAndSkipsCoveredRecords) {
  TempDir tmp("checkpoint");
  {
    Journal journal(tmp.path, "alice", 5);
    for (const JournalRecord& record : sample_records()) {
      journal.append(record);
    }
    journal.checkpoint("edge(a,b).\nedge(b,c).\n", 3);
  }
  // Compaction kept only seq > 3.
  Journal journal(tmp.path, "alice", 0);
  RecoveredSession recovered = journal.recover();
  EXPECT_EQ(recovered.checkpoint_seq, 3u);
  EXPECT_EQ(recovered.checkpoint_program, "edge(a,b).\nedge(b,c).\n");
  ASSERT_EQ(recovered.records.size(), 2u);
  EXPECT_EQ(recovered.records[0].seq, 4u);
  EXPECT_EQ(recovered.records[1].seq, 5u);
}

TEST(Journal, CrashBetweenCheckpointAndCompactionIsHarmless) {
  // The checkpoint publishes first; if the crash lands before the
  // journal compaction, recovery sees an overlap (records <= checkpoint
  // seq) and must skip it rather than double-apply.
  TempDir tmp("overlap");
  std::string uncompacted;
  {
    Journal journal(tmp.path, "alice", 5);
    for (const JournalRecord& record : sample_records()) {
      journal.append(record);
    }
    uncompacted = slurp(tmp.path / "alice" / "journal.log");
    journal.checkpoint("edge(a,b).\nedge(b,c).\n", 3);
  }
  // Restore the pre-compaction journal next to the published checkpoint.
  spit(tmp.path / "alice" / "journal.log", uncompacted);
  Journal journal(tmp.path, "alice", 0);
  RecoveredSession recovered = journal.recover();
  EXPECT_EQ(recovered.checkpoint_seq, 3u);
  ASSERT_EQ(recovered.records.size(), 2u);
  EXPECT_EQ(recovered.records[0].seq, 4u);
  EXPECT_EQ(recovered.records[1].seq, 5u);
}

TEST(Journal, CorruptHeaderIsAHardError) {
  TempDir tmp("header");
  { Journal journal(tmp.path, "alice", 5); }
  spit(tmp.path / "alice" / "journal.log", "not a journal\n");
  Journal journal(tmp.path, "alice", 5);
  EXPECT_THROW(journal.recover(), std::runtime_error);
}

TEST(Journal, ListSessionsSortedAndFiltered) {
  TempDir tmp("list");
  { Journal journal(tmp.path, "bob", 1); }
  { Journal journal(tmp.path, "alice", 2); }
  fs::create_directories(tmp.path / "not-a-session");
  std::vector<std::string> ids = list_sessions(tmp.path);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "alice");
  EXPECT_EQ(ids[1], "bob");
}

}  // namespace
}  // namespace provmark::serve
