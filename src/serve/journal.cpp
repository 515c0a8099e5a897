#include "serve/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/atomic_io.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::serve {

namespace {

constexpr const char* kJournalName = "journal.log";
constexpr const char* kCheckpointName = "checkpoint.dlog";
constexpr const char* kHeaderMagic = "provmark-serve-journal";
constexpr const char* kHeaderVersion = "v1";

[[noreturn]] void corrupt(const std::string& message) {
  throw std::runtime_error("serve journal: " + message);
}

/// `read(fields)` over the fields of `line`; a malformed field is
/// corruption.
template <class Read>
auto read_line(std::string_view line, Read read) {
  return util::read_fields<std::runtime_error>("serve journal", [&] {
    util::FieldReader fields(line);
    return read(fields);
  });
}

/// Reads the header line ("H <magic> <version> <session> <seed>") of the
/// `what` file at `path` and returns its seed.
std::uint64_t read_header(std::string_view line, const std::string& session,
                          const std::string& what,
                          const std::filesystem::path& path) {
  return read_line(line, [&](util::FieldReader& fields) {
    if (fields.left() != 5 || fields.word("header") != "H" ||
        fields.word("magic") != kHeaderMagic ||
        fields.word("version") != kHeaderVersion ||
        fields.word("session") != session) {
      corrupt(what + " header mismatch in " + path.string());
    }
    return fields.number<std::uint64_t>(what + " seed");
  });
}

}  // namespace

std::string format_record(const JournalRecord& record) {
  const std::string escaped = util::escape_field(record.payload);
  return util::format("R %llu %s %s %zu %016llx ",
                      static_cast<unsigned long long>(record.seq),
                      event_kind_name(record.kind),
                      priority_name(record.priority), escaped.size(),
                      static_cast<unsigned long long>(
                          util::stable_hash(escaped))) +
         escaped;
}

JournalRecord parse_record(std::string_view line) {
  return read_line(line, [](util::FieldReader& fields) {
    if (fields.left() != 7) corrupt("malformed record line");
    fields.expect("R");
    JournalRecord record;
    record.seq = fields.number<std::uint64_t>("record seq");
    record.kind = parse_event_kind(fields.word("record kind"));
    record.priority = parse_priority(fields.word("record priority"));
    const auto bytes = fields.number<std::uint64_t>("record length");
    const auto fnv = fields.number<std::uint64_t>("record checksum", 16);
    const std::string_view escaped = fields.word("record payload");
    if (escaped.size() != bytes) {
      corrupt(util::format("record length mismatch: header %llu, field %zu",
                           static_cast<unsigned long long>(bytes),
                           escaped.size()));
    }
    if (util::stable_hash(escaped) != fnv) {
      corrupt("record checksum mismatch");
    }
    record.payload = util::unescape_field(escaped);
    return record;
  });
}

Journal::Journal(const std::filesystem::path& root,
                 const std::string& session, std::uint64_t seed)
    : dir_(root / session), session_(session), seed_(seed) {
  std::filesystem::create_directories(dir_);
  const std::filesystem::path log = dir_ / kJournalName;
  if (!std::filesystem::exists(log)) {
    // Fresh session: the header (and with it the seed) is committed
    // atomically before any event can be admitted. The session
    // directory entry itself is also new, so the journal *root* must be
    // fsynced too — otherwise power loss could drop the whole session
    // directory out from under already-acked events.
    util::write_file_atomic(log, header_line() + "\n");
    util::sync_dir(root);
  }
  open_for_append();
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Journal::header_line() const {
  return util::format("H %s %s %s %llu", kHeaderMagic, kHeaderVersion,
                      session_.c_str(),
                      static_cast<unsigned long long>(seed_));
}

void Journal::open_for_append() {
  if (fd_ >= 0) ::close(fd_);
  const std::filesystem::path log = dir_ / kJournalName;
  fd_ = ::open(log.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    throw std::runtime_error("serve journal: cannot open " + log.string() +
                             ": " + std::strerror(errno));
  }
}

RecoveredSession Journal::recover() {
  RecoveredSession out;
  live_records_.clear();

  // -- checkpoint (optional) --------------------------------------------------
  const std::filesystem::path ckpt = dir_ / kCheckpointName;
  if (std::filesystem::exists(ckpt)) {
    // Format: header line, "C <seq>" line, then the program text. The
    // checkpoint was published atomically, so it is all-or-nothing; a
    // malformed one is a hard error, not a torn tail.
    const std::string text = util::read_file(ckpt);
    std::size_t first_nl = text.find('\n');
    std::size_t second_nl =
        first_nl == std::string::npos ? std::string::npos
                                      : text.find('\n', first_nl + 1);
    if (second_nl == std::string::npos) corrupt("checkpoint too short");
    const std::string_view view(text);
    out.seed =
        read_header(view.substr(0, first_nl), session_, "checkpoint", ckpt);
    out.checkpoint_seq = read_line(
        view.substr(first_nl + 1, second_nl - first_nl - 1),
        [](util::FieldReader& fields) {
          if (fields.left() != 2) corrupt("checkpoint seq line mismatch");
          fields.expect("C");
          return fields.number<std::uint64_t>("checkpoint seq");
        });
    out.checkpoint_program = text.substr(second_nl + 1);
  }

  // -- journal ----------------------------------------------------------------
  const std::filesystem::path log = dir_ / kJournalName;
  const std::string text = util::read_file(log);
  std::size_t pos = 0;
  std::size_t good_end = 0;  ///< byte offset past the last intact record
  bool header_seen = false;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // unterminated tail: torn
    const std::string_view line(text.data() + pos, nl - pos);
    if (!header_seen) {
      const std::uint64_t seed = read_header(line, session_, "journal", log);
      if (!out.checkpoint_program.empty() && out.seed != seed) {
        corrupt("checkpoint/journal seed mismatch");
      }
      out.seed = seed;
      header_seen = true;
      good_end = nl + 1;
      pos = nl + 1;
      continue;
    }
    JournalRecord record;
    try {
      record = parse_record(line);
    } catch (const std::exception&) {
      break;  // torn or corrupt from here on: truncate
    }
    if (record.seq > out.checkpoint_seq) {
      out.records.push_back(std::move(record));
    }
    good_end = nl + 1;
    pos = nl + 1;
  }
  if (!header_seen) corrupt("journal has no header: " + log.string());

  out.torn_bytes = text.size() - good_end;
  if (out.torn_bytes > 0) {
    // Truncate the torn tail via an atomic rewrite so the next append
    // extends a well-formed log instead of a half-record.
    util::write_file_atomic(log, text.substr(0, good_end));
    open_for_append();
  }
  seed_ = out.seed;
  checkpoint_seq_ = out.checkpoint_seq;
  live_records_ = out.records;
  return out;
}

std::uint64_t Journal::last_seq() const {
  return live_records_.empty() ? checkpoint_seq_ : live_records_.back().seq;
}

std::vector<JournalRecord> Journal::records_after(std::uint64_t after) const {
  std::vector<JournalRecord> out;
  for (const JournalRecord& record : live_records_) {
    if (record.seq > after) out.push_back(record);
  }
  return out;
}

std::optional<std::uint64_t> Journal::records_digest(
    std::uint64_t after, std::uint64_t through) const {
  if (after > through) return std::nullopt;
  // The range must be fully covered by live records: every seq in
  // (after, through] present exactly once, in order. A range reaching
  // below the checkpoint is gone from this journal (compaction) and a
  // range past last_seq() does not exist yet — both mean "no common
  // digest", which the handshake resolves with a checkpoint reset.
  if (after < checkpoint_seq_ || through > last_seq()) return std::nullopt;
  std::string bytes;
  std::uint64_t expected = after + 1;
  for (const JournalRecord& record : live_records_) {
    if (record.seq <= after) continue;
    if (record.seq > through) break;
    if (record.seq != expected) return std::nullopt;
    ++expected;
    bytes += format_record(record);
    bytes += '\n';
  }
  if (expected != through + 1) return std::nullopt;
  return util::stable_hash(bytes);
}

std::string Journal::checkpoint_program() const {
  const std::filesystem::path ckpt = dir_ / kCheckpointName;
  if (!std::filesystem::exists(ckpt)) return "";
  const std::string text = util::read_file(ckpt);
  const std::size_t first_nl = text.find('\n');
  const std::size_t second_nl =
      first_nl == std::string::npos ? std::string::npos
                                    : text.find('\n', first_nl + 1);
  if (second_nl == std::string::npos) corrupt("checkpoint too short");
  return text.substr(second_nl + 1);
}

void Journal::append(const JournalRecord& record) {
  const std::string line = format_record(record) + "\n";
  std::size_t written = 0;
  while (written < line.size()) {
    ssize_t n = ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("serve journal: append failed: ") +
                               std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    throw std::runtime_error("serve journal: fsync failed: " +
                             std::string(std::strerror(errno)));
  }
  live_records_.push_back(record);
}

void Journal::checkpoint(const std::string& program_text,
                         std::uint64_t seq) {
  // 1. Publish the checkpoint. After this rename, every crash point
  //    recovers to (checkpoint, journal-tail) — a compaction that never
  //    happens only costs a replay overlap that seq comparison skips.
  util::write_file_atomic(
      dir_ / kCheckpointName,
      header_line() + "\n" +
          util::format("C %llu", static_cast<unsigned long long>(seq)) +
          "\n" + program_text);

  // 2. Compact the journal down to records newer than the checkpoint.
  std::string compacted = header_line() + "\n";
  std::vector<JournalRecord> keep;
  for (const JournalRecord& record : live_records_) {
    if (record.seq > seq) {
      compacted += format_record(record) + "\n";
      keep.push_back(record);
    }
  }
  util::write_file_atomic(dir_ / kJournalName, compacted);
  live_records_ = std::move(keep);
  checkpoint_seq_ = seq;
  open_for_append();
}

std::vector<std::string> list_sessions(const std::filesystem::path& root) {
  std::vector<std::string> out;
  if (!std::filesystem::is_directory(root)) return out;
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    if (entry.is_directory() &&
        std::filesystem::exists(entry.path() / kJournalName)) {
      out.push_back(entry.path().filename().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace provmark::serve
