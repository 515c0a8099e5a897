#include "serve/replicate.h"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "util/fault.h"
#include "util/strings.h"

namespace provmark::serve {

namespace {

/// Reads a session id field and re-validates it.
std::string read_session(util::FieldReader& fields) {
  std::string id(fields.word("session"));
  // Session ids off the replication wire become journal directory
  // names — re-validate before anything touches the filesystem.
  if (!valid_session_id(id)) {
    throw std::invalid_argument("illegal session id '" + id +
                                "' on replication link");
  }
  return id;
}

long long ms_since(bool heard, std::chrono::steady_clock::time_point last) {
  if (!heard) return -1;
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - last)
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// PrimaryReplicator

PrimaryReplicator::PrimaryReplicator(Service& service,
                                     ReplicationConfig config)
    : service_(service), config_(config) {}

void PrimaryReplicator::on_replica_connected() {
  std::lock_guard<std::mutex> lock(mu_);
  connected_ = true;
  handshaking_ = true;  // nothing flows until repl-hello arrives
  have_expected_ = 0;
  have_.clear();
  streams_.clear();
  pending_resets_ = false;
  out_.clear();
}

void PrimaryReplicator::on_replica_disconnected() {
  std::lock_guard<std::mutex> lock(mu_);
  connected_ = false;
  handshaking_ = false;
  streams_.clear();
  pending_resets_ = false;
  out_.clear();
}

bool PrimaryReplicator::replica_connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connected_;
}

void PrimaryReplicator::emit_locked(const std::string& line) {
  out_ += line;
  out_ += '\n';
}

void PrimaryReplicator::quarantine_locked(const std::string& session,
                                          Stream& stream,
                                          const std::string& reason) {
  if (stream.state == StreamState::Quarantined) return;
  stream.state = StreamState::Quarantined;
  stream.reason = reason;
  stream.pending.clear();
  std::fprintf(stderr, "serve: replication stream '%s' quarantined: %s\n",
               session.c_str(), reason.c_str());
}

void PrimaryReplicator::forward_record_locked(const std::string& session,
                                              Stream& stream,
                                              const JournalRecord& record) {
  emit_locked(util::format("repl-rec %s %s", session.c_str(),
                           util::escape_field(format_record(record)).c_str()));
  stream.sent = record.seq;
  ++forwarded_records_;
  // Link faults fire at forwarded records; the daemon loop enacts them.
  const util::fault::Effect fault =
      util::fault::hit(util::fault::Site::RecordForwarded);
  if (fault.drop) link_drop_request_ = true;
  if (fault.partition_ms > 0) partition_request_ms_ = fault.partition_ms;
}

void PrimaryReplicator::drain_pending_locked(const std::string& session,
                                             Stream& stream) {
  while (!stream.pending.empty()) {
    JournalRecord record = std::move(stream.pending.front());
    stream.pending.pop_front();
    // A record at or below sent was already shipped in the snapshot.
    if (record.seq > stream.sent) {
      forward_record_locked(session, stream, record);
    }
  }
  stream.state = StreamState::Streaming;
}

void PrimaryReplicator::reset_stream_locked(
    const std::string& session, Stream& stream,
    const Service::ResyncSnapshot& snapshot) {
  emit_locked(util::format("repl-reset %s %" PRIu64 " %" PRIu64 " %s",
                           session.c_str(), snapshot.seed, snapshot.base_seq,
                           util::escape_field(snapshot.base_program).c_str()));
  stream.sent = snapshot.base_seq;
  stream.acked = snapshot.base_seq;
  for (const JournalRecord& record : snapshot.records) {
    if (record.seq > stream.sent) {
      forward_record_locked(session, stream, record);
    }
  }
  // Records admitted after the snapshot was cut buffered into pending
  // (the sink kept running); the seq > sent guard dedups the overlap.
  drain_pending_locked(session, stream);
}

void PrimaryReplicator::handle_line(const std::string& line) {
  util::FieldReader fields(line);
  bool finish = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    heard_from_replica_ = true;
    last_inbound_ = std::chrono::steady_clock::now();
    const std::string verb(fields.word("verb"));
    if (verb == "repl-hello") {
      const std::string_view version = fields.word("version");
      if (version != "v1") {
        throw std::invalid_argument("unsupported replication version '" +
                                    std::string(version) + "'");
      }
      const auto sessions = fields.number<std::size_t>("session count");
      fields.end();
      handshaking_ = true;
      have_expected_ = sessions;
      have_.clear();
      finish = have_.size() == have_expected_;
    } else if (verb == "repl-have") {
      HaveEntry entry;
      entry.session = read_session(fields);
      entry.last = fields.number<std::uint64_t>("last seq");
      entry.ckpt = fields.number<std::uint64_t>("checkpoint seq");
      entry.digest = fields.number<std::uint64_t>("records digest", 16);
      fields.end();
      if (!handshaking_) {
        throw std::invalid_argument("repl-have outside a handshake");
      }
      have_.push_back(std::move(entry));
      finish = have_.size() == have_expected_;
    } else if (verb == "repl-ack") {
      const std::string session = read_session(fields);
      const auto seq = fields.number<std::uint64_t>("ack seq");
      fields.end();
      Stream& stream = streams_[session];
      if (seq > stream.acked) stream.acked = seq;
    } else if (verb == "repl-ping") {
      const auto counter = fields.number<std::uint64_t>("ping counter");
      fields.end();
      emit_locked(util::format("repl-pong %" PRIu64, counter));
    } else if (verb == "repl-diverged") {
      const std::string session = read_session(fields);
      const auto seq = fields.number<std::uint64_t>("diverged seq");
      const std::string reason = fields.text("reason");
      fields.end();
      quarantine_locked(session, streams_[session],
                        "standby reported divergence at seq " +
                            std::to_string(seq) + ": " + reason);
    } else {
      throw std::invalid_argument("unknown replication verb '" + verb + "'");
    }
  }
  if (finish) finish_handshake();
}

void PrimaryReplicator::finish_handshake() {
  // Snapshot the standby's announcements, then query the Service with
  // no replicator lock held (on_record blocks on mu_ while holding the
  // admission mutex — holding mu_ across a Service call would deadlock).
  std::vector<HaveEntry> have;
  {
    std::lock_guard<std::mutex> lock(mu_);
    have = have_;
  }
  const std::vector<std::string> ids = service_.session_ids();

  for (const std::string& id : ids) {
    auto position = service_.journal_position(id);
    if (!position) continue;  // raced with nothing: sessions never vanish
    const HaveEntry* entry = nullptr;
    for (const HaveEntry& candidate : have) {
      if (candidate.session == id) {
        entry = &candidate;
        break;
      }
    }

    if (entry != nullptr && entry->last > position->last_seq) {
      // The standby journaled records we never acked — a history fork
      // (e.g. it briefly served as primary). Never silently merge.
      std::lock_guard<std::mutex> lock(mu_);
      quarantine_locked(
          id, streams_[id],
          util::format("replica-ahead: standby at seq %" PRIu64
                       ", primary at %" PRIu64,
                       entry->last, position->last_seq));
      continue;
    }

    bool resume = false;
    if (entry != nullptr && entry->last >= entry->ckpt &&
        entry->ckpt >= position->checkpoint_seq) {
      // Resume iff our journal still covers (ckpt, last] and the bytes
      // match — the digest proves the standby's tail is our prefix.
      auto ours = service_.records_digest(id, entry->ckpt, entry->last);
      resume = ours.has_value() && *ours == entry->digest;
    }

    if (resume) {
      const std::vector<JournalRecord> missing =
          service_.records_after(id, entry->last);
      std::lock_guard<std::mutex> lock(mu_);
      Stream& stream = streams_[id];
      if (stream.state == StreamState::Quarantined) continue;
      emit_locked(util::format("repl-resume %s %" PRIu64 " %" PRIu64,
                               id.c_str(), position->seed, entry->last));
      stream.sent = entry->last;
      stream.acked = entry->last;
      for (const JournalRecord& record : missing) {
        if (record.seq > stream.sent) forward_record_locked(id, stream, record);
      }
      drain_pending_locked(id, stream);
    } else {
      auto snapshot = service_.resync_snapshot(id);
      if (!snapshot) continue;
      std::lock_guard<std::mutex> lock(mu_);
      Stream& stream = streams_[id];
      if (stream.state == StreamState::Quarantined) continue;
      reset_stream_locked(id, stream, *snapshot);
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  // Standby sessions we know nothing about are a fork too (stale state
  // from some earlier life): quarantine them so the operator sees it.
  for (const HaveEntry& entry : have) {
    bool known = false;
    for (const std::string& id : ids) {
      if (id == entry.session) {
        known = true;
        break;
      }
    }
    if (!known) {
      quarantine_locked(entry.session, streams_[entry.session],
                        "unknown-to-primary: standby announced a session "
                        "this primary has no journal for");
    }
  }
  // Sessions born while the handshake ran buffered their records in
  // Idle streams; promote them to pending resets for the daemon loop.
  handshaking_ = false;
  for (auto& [id, stream] : streams_) {
    if (stream.state == StreamState::Idle && !stream.pending.empty()) {
      stream.state = StreamState::PendingReset;
      pending_resets_ = true;
    }
  }
}

std::string PrimaryReplicator::take_output() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(out_, std::string());
}

void PrimaryReplicator::on_record(const std::string& session,
                                  const JournalRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!connected_) return;
  Stream& stream = streams_[session];
  switch (stream.state) {
    case StreamState::Quarantined:
      return;
    case StreamState::Streaming:
      forward_record_locked(session, stream, record);
      return;
    case StreamState::Idle:
    case StreamState::PendingReset:
      // Can't forward yet (handshake in flight or the stream needs a
      // full reset, which requires Service queries we must not make
      // from under the admission mutex). Buffer; the daemon loop ships
      // it via flush_pending_resets().
      stream.pending.push_back(record);
      if (!handshaking_) {
        stream.state = StreamState::PendingReset;
        pending_resets_ = true;
      }
      return;
  }
}

void PrimaryReplicator::on_checkpoint(const std::string& session,
                                      std::uint64_t seq,
                                      const std::string& digest) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!connected_) return;
  auto it = streams_.find(session);
  if (it == streams_.end() || it->second.state != StreamState::Streaming) {
    return;
  }
  // Only meaningful when the standby has (or will have) the records
  // through seq; sent >= seq holds because checkpoints trail applies,
  // which trail admission-order forwarding.
  if (seq > it->second.sent) return;
  emit_locked(util::format("repl-check %s %" PRIu64 " %s", session.c_str(),
                           seq, digest.c_str()));
}

bool PrimaryReplicator::flush_pending_resets() {
  std::vector<std::string> todo;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!pending_resets_ || !connected_ || handshaking_) return false;
    pending_resets_ = false;
    for (auto& [id, stream] : streams_) {
      if (stream.state == StreamState::PendingReset) todo.push_back(id);
    }
  }
  bool emitted = false;
  for (const std::string& id : todo) {
    auto snapshot = service_.resync_snapshot(id);
    if (!snapshot) continue;
    std::lock_guard<std::mutex> lock(mu_);
    if (!connected_) return emitted;
    Stream& stream = streams_[id];
    if (stream.state != StreamState::PendingReset) continue;
    reset_stream_locked(id, stream, *snapshot);
    emitted = true;
  }
  return emitted;
}

PrimaryReplicator::AckState PrimaryReplicator::ack_state(
    const std::string& session, std::uint64_t seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(session);
  if (it == streams_.end()) return AckState::Pending;
  if (it->second.state == StreamState::Quarantined) return AckState::Failed;
  return it->second.acked >= seq ? AckState::Acked : AckState::Pending;
}

std::uint64_t PrimaryReplicator::lag_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t lag = 0;
  for (const auto& [id, stream] : streams_) {
    if (stream.sent > stream.acked) lag += stream.sent - stream.acked;
    lag += stream.pending.size();
  }
  return lag;
}

std::string PrimaryReplicator::stats_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t lag = 0;
  std::uint64_t quarantined = 0;
  for (const auto& [id, stream] : streams_) {
    if (stream.sent > stream.acked) lag += stream.sent - stream.acked;
    lag += stream.pending.size();
    if (stream.state == StreamState::Quarantined) ++quarantined;
  }
  std::string out;
  out += "repl_role=primary\n";
  out += util::format("repl_mode=%s\n", config_.sync_mode ? "sync" : "async");
  out += util::format("repl_connected=%d\n", connected_ ? 1 : 0);
  out += util::format("repl_lag_events=%" PRIu64 "\n", lag);
  out += util::format("repl_forwarded_records=%" PRIu64 "\n",
                      forwarded_records_);
  out += util::format("repl_quarantined_streams=%" PRIu64 "\n", quarantined);
  out += util::format("last_heartbeat_ms=%lld\n",
                      ms_since(heard_from_replica_, last_inbound_));
  return out;
}

bool PrimaryReplicator::take_link_drop_request() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(link_drop_request_, false);
}

double PrimaryReplicator::take_partition_request_ms() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(partition_request_ms_, 0.0);
}

// ---------------------------------------------------------------------------
// ReplicaReplicator

ReplicaReplicator::ReplicaReplicator(Service& service,
                                     ReplicationConfig config)
    : service_(service), config_(config) {}

void ReplicaReplicator::emit_locked(const std::string& line) {
  out_ += line;
  out_ += '\n';
}

void ReplicaReplicator::note_inbound_locked() {
  missed_heartbeats_ = 0;
  heard_from_primary_ = true;
  last_inbound_ = std::chrono::steady_clock::now();
}

void ReplicaReplicator::on_link_connected() {
  // Describe every local session from its journal: last seq, checkpoint
  // seq, digest over the live tail — queried before taking mu_ (the
  // no-Service-calls-under-mu_ rule).
  struct Announce {
    std::string id;
    std::uint64_t last = 0;
    std::uint64_t ckpt = 0;
    std::uint64_t digest = 0;
  };
  std::vector<Announce> announce;
  for (const std::string& id : service_.session_ids()) {
    auto position = service_.journal_position(id);
    if (!position) continue;
    auto digest =
        service_.records_digest(id, position->checkpoint_seq,
                                position->last_seq);
    announce.push_back(Announce{id, position->last_seq,
                                position->checkpoint_seq,
                                digest.value_or(0)});
  }
  std::lock_guard<std::mutex> lock(mu_);
  connected_ = true;
  missed_heartbeats_ = 0;
  streams_.clear();
  checks_.clear();
  last_applied_.clear();
  out_.clear();
  emit_locked(util::format("repl-hello v1 %zu", announce.size()));
  for (const Announce& a : announce) {
    emit_locked(util::format("repl-have %s %" PRIu64 " %" PRIu64 " %016llx",
                             a.id.c_str(), a.last, a.ckpt,
                             static_cast<unsigned long long>(a.digest)));
  }
}

void ReplicaReplicator::on_link_disconnected() {
  std::lock_guard<std::mutex> lock(mu_);
  connected_ = false;
  streams_.clear();
  checks_.clear();
  last_applied_.clear();
  out_.clear();
}

bool ReplicaReplicator::link_connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connected_;
}

void ReplicaReplicator::quarantine(const std::string& session,
                                   std::uint64_t seq,
                                   const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  Stream& stream = streams_[session];
  if (stream.quarantined) return;
  stream.quarantined = true;
  stream.reason = reason;
  std::fprintf(stderr, "serve: replication stream '%s' quarantined: %s\n",
               session.c_str(), reason.c_str());
  emit_locked(util::format("repl-diverged %s %" PRIu64 " %s", session.c_str(),
                           seq, util::escape_field(reason).c_str()));
}

void ReplicaReplicator::compare_digest_locked(const std::string& session,
                                              std::uint64_t seq,
                                              const std::string& ours,
                                              const std::string& theirs) {
  if (ours == theirs) return;
  Stream& stream = streams_[session];
  if (stream.quarantined) return;
  stream.quarantined = true;
  stream.reason = util::format(
      "digest mismatch at seq %" PRIu64 ": ours %s, primary %s", seq,
      ours.c_str(), theirs.c_str());
  std::fprintf(stderr, "serve: replication stream '%s' quarantined: %s\n",
               session.c_str(), stream.reason.c_str());
  emit_locked(util::format("repl-diverged %s %" PRIu64 " %s", session.c_str(),
                           seq, util::escape_field(stream.reason).c_str()));
}

void ReplicaReplicator::handle_line(const std::string& line) {
  util::FieldReader fields(line);
  {
    std::lock_guard<std::mutex> lock(mu_);
    note_inbound_locked();
  }
  const std::string verb(fields.word("verb"));

  if (verb == "repl-pong") {
    fields.word("ping counter");
    fields.end();
    return;
  }

  if (verb == "repl-resume") {
    const std::string session = read_session(fields);
    const auto seed = fields.number<std::uint64_t>("session seed");
    const auto from = fields.number<std::uint64_t>("resume seq");
    fields.end();
    auto position = service_.journal_position(session);
    const std::uint64_t local_last = position ? position->last_seq : 0;
    if (position && position->seed != seed) {
      quarantine(session, local_last,
                 util::format("resume seed mismatch: local %" PRIu64
                              ", primary %" PRIu64,
                              position->seed, seed));
      return;
    }
    if (local_last != from) {
      quarantine(session, local_last,
                 util::format("resume position mismatch: local last %" PRIu64
                              ", primary resumes from %" PRIu64,
                              local_last, from));
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    Stream& stream = streams_[session];
    stream.seed = seed;
    stream.next = from + 1;
    last_applied_[session] = 0;
    return;
  }

  if (verb == "repl-reset") {
    const std::string session = read_session(fields);
    const auto seed = fields.number<std::uint64_t>("session seed");
    const auto base = fields.number<std::uint64_t>("base seq");
    const std::string program = fields.text("program");
    fields.end();
    // flush() first: reset_session refuses while applies are pending.
    service_.flush();
    service_.reset_session(session, seed, base, program);
    std::lock_guard<std::mutex> lock(mu_);
    Stream& stream = streams_[session];
    stream = Stream{};
    stream.seed = seed;
    stream.next = base + 1;
    checks_[session].clear();
    last_applied_[session] = base;
    own_ckpt_.erase(session);
    // Ack the base so the primary's lag accounting starts truthful.
    emit_locked(util::format("repl-ack %s %" PRIu64, session.c_str(), base));
    return;
  }

  if (verb == "repl-rec") {
    const std::string session = read_session(fields);
    const std::string record_line = fields.text("record");
    fields.end();
    JournalRecord record = parse_record(record_line);
    std::uint64_t seed = 0;
    std::uint64_t next = 0;
    bool known = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = streams_.find(session);
      if (it != streams_.end()) {
        if (it->second.quarantined) return;
        known = true;
        seed = it->second.seed;
        next = it->second.next;
      }
    }
    if (!known) {
      quarantine(session, 0,
                 "record for a stream the primary never announced");
      return;
    }
    if (record.seq < next) {
      // Idempotent redelivery after a reconnect: re-ack our position.
      std::lock_guard<std::mutex> lock(mu_);
      emit_locked(util::format("repl-ack %s %" PRIu64, session.c_str(),
                               next - 1));
      return;
    }
    if (record.seq > next) {
      quarantine(session, next - 1,
                 util::format("sequence gap: expected %" PRIu64
                              ", primary sent %" PRIu64,
                              next, record.seq));
      return;
    }
    const std::uint64_t seq = record.seq;
    Response response = service_.apply_replicated(session, seed, record);
    if (response.status == Status::Ok) {
      // Journaled + fsynced, ack not yet sent — the hardest replication
      // crash point; the replica-crash fault rule fires exactly here.
      util::fault::hit(util::fault::Site::RecordJournaled);
      std::lock_guard<std::mutex> lock(mu_);
      auto it = streams_.find(session);
      if (it != streams_.end()) it->second.next = seq + 1;
      ++replicated_records_;
      emit_locked(util::format("repl-ack %s %" PRIu64, session.c_str(), seq));
    } else if (response.status == Status::Busy) {
      // Draining for shutdown: drop silently, no ack — the primary
      // re-sends after reconnect.
    } else {
      quarantine(session, next - 1,
                 util::format("apply refused (%s): %s",
                              status_name(response.status),
                              response.body.c_str()));
    }
    return;
  }

  if (verb == "repl-check") {
    const std::string session = read_session(fields);
    const auto seq = fields.number<std::uint64_t>("check seq");
    const std::string digest(fields.word("digest"));
    fields.end();
    std::lock_guard<std::mutex> lock(mu_);
    auto applied_it = last_applied_.find(session);
    const std::uint64_t applied =
        applied_it == last_applied_.end() ? 0 : applied_it->second;
    if (seq > applied) {
      // Not there yet: the applied-sink compares at exactly seq.
      checks_[session][seq] = digest;
      return;
    }
    // Already applied past it. If our own checkpoint landed at the
    // same seq (same cadence, same records), compare those digests;
    // otherwise the check is unverifiable and dropped — the next
    // checkpoint exchange covers the stream again.
    auto own = own_ckpt_.find(session);
    if (own != own_ckpt_.end() && own->second.first == seq) {
      compare_digest_locked(session, seq, own->second.second, digest);
    }
    return;
  }

  throw std::invalid_argument("unknown replication verb '" + verb + "'");
}

std::string ReplicaReplicator::take_output() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(out_, std::string());
}

void ReplicaReplicator::heartbeat_tick() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!connected_) return;
  emit_locked(util::format("repl-ping %" PRIu64, ++ping_counter_));
  ++missed_heartbeats_;
}

int ReplicaReplicator::missed_heartbeats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return missed_heartbeats_;
}

void ReplicaReplicator::on_applied(
    const std::string& session, std::uint64_t seq,
    const std::function<std::string()>& digest_now) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t& applied = last_applied_[session];
  if (seq > applied) applied = seq;
  auto checks_it = checks_.find(session);
  if (checks_it == checks_.end()) return;
  auto check = checks_it->second.find(seq);
  if (check == checks_it->second.end()) return;
  const std::string expected = check->second;
  checks_it->second.erase(check);
  // digest_now() reads the session under the apply lock our caller
  // already holds; it takes no further locks, so holding mu_ is safe.
  compare_digest_locked(session, seq, digest_now(), expected);
}

void ReplicaReplicator::on_checkpoint(const std::string& session,
                                      std::uint64_t seq,
                                      const std::string& digest) {
  std::lock_guard<std::mutex> lock(mu_);
  own_ckpt_[session] = {seq, digest};
  auto checks_it = checks_.find(session);
  if (checks_it == checks_.end()) return;
  auto check = checks_it->second.find(seq);
  if (check == checks_it->second.end()) return;
  const std::string expected = check->second;
  checks_it->second.erase(check);
  compare_digest_locked(session, seq, digest, expected);
}

std::string ReplicaReplicator::stats_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t quarantined = 0;
  for (const auto& [id, stream] : streams_) {
    if (stream.quarantined) ++quarantined;
  }
  std::string out;
  out += "repl_role=replica\n";
  out += util::format("repl_mode=%s\n", config_.sync_mode ? "sync" : "async");
  out += util::format("repl_connected=%d\n", connected_ ? 1 : 0);
  out += util::format("repl_replicated_records=%" PRIu64 "\n",
                      replicated_records_);
  out += util::format("repl_quarantined_streams=%" PRIu64 "\n", quarantined);
  out += util::format("repl_missed_heartbeats=%d\n", missed_heartbeats_);
  out += util::format("last_heartbeat_ms=%lld\n",
                      ms_since(heard_from_primary_, last_inbound_));
  return out;
}

std::map<std::string, std::string> ReplicaReplicator::quarantined_streams()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::string> out;
  for (const auto& [id, stream] : streams_) {
    if (stream.quarantined) out[id] = stream.reason;
  }
  return out;
}

}  // namespace provmark::serve
