#include "serve/service.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "util/fault.h"
#include "util/rng.h"
#include "util/strings.h"

namespace provmark::serve {

namespace {

std::uint64_t session_seed(std::uint64_t root_seed, const std::string& id) {
  return util::Rng(root_seed ^ util::stable_hash(id)).next_u64();
}

}  // namespace

std::string ServiceStats::to_text() const {
  std::string out;
  auto line = [&out](const char* key, std::uint64_t value) {
    out += util::format("%s=%llu\n", key,
                        static_cast<unsigned long long>(value));
  };
  line("sessions", sessions);
  line("quarantined_sessions", quarantined_sessions);
  line("pending", pending);
  line("admitted", admitted);
  line("applied", applied);
  line("shed_low", shed_low);
  line("shed_normal", shed_normal);
  line("busy", busy);
  line("rejected_quarantined", rejected_quarantined);
  line("rejected_oversized", rejected_oversized);
  line("checkpoints", checkpoints);
  line("replayed_events", replayed_events);
  line("torn_bytes_truncated", torn_bytes_truncated);
  return out;
}

Service::SessionState::SessionState(const std::filesystem::path& root,
                                    const std::string& id,
                                    std::uint64_t seed,
                                    SessionOptions options)
    : journal(root, id, seed),
      recovered(journal.recover()),
      session(id, recovered.seed, std::move(options)),
      next_seq(recovered.checkpoint_seq) {
  if (!recovered.checkpoint_program.empty() || recovered.checkpoint_seq > 0) {
    session.restore(recovered.checkpoint_program, recovered.checkpoint_seq);
  }
  for (const JournalRecord& record : recovered.records) {
    session.apply(record);
    if (record.seq > next_seq) next_seq = record.seq;
  }
  ++next_seq;  // first fresh seq is strictly above everything on disk
}

Service::Service(ServiceOptions options) : options_(std::move(options)) {
  session_options_.max_payload_bytes = options_.max_payload_bytes;
  session_options_.pipeline = options_.pipeline;
  std::filesystem::create_directories(options_.root);

  // Recover every session already on disk before accepting traffic —
  // replay runs through the same Session::apply as live events, so a
  // recovered fixpoint is the fixpoint the uninterrupted run had.
  for (const std::string& id : list_sessions(options_.root)) {
    auto state = std::make_unique<SessionState>(
        options_.root, id, session_seed(options_.seed, id),
        session_options_);
    stats_.replayed_events += state->recovered.records.size();
    stats_.torn_bytes_truncated += state->recovered.torn_bytes;
    sessions_.emplace(id, std::move(state));
  }

  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Service::~Service() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cancel_.store(true);
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

Service::SessionState* Service::find_session(const std::string& id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

Service::SessionState& Service::open_session(const std::string& id) {
  return open_session_seeded(id, session_seed(options_.seed, id));
}

Service::SessionState& Service::open_session_seeded(const std::string& id,
                                                    std::uint64_t seed) {
  if (SessionState* state = find_session(id)) return *state;
  auto state =
      std::make_unique<SessionState>(options_.root, id, seed,
                                     session_options_);
  SessionState& ref = *state;
  sessions_.emplace(id, std::move(state));
  return ref;
}

Response Service::submit(const Request& request) {
  if (!request.is_event) return handle_query(request);

  if (request.payload.size() > options_.max_payload_bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected_oversized;
    return Response{Status::TooLarge,
                    0,
                    util::format("payload is %zu bytes, limit %zu",
                                 request.payload.size(),
                                 options_.max_payload_bytes)};
  }

  std::uint64_t seq = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (draining_ || stop_) {
      ++stats_.busy;
      return Response{Status::Busy, 0, ""};
    }
    SessionState& state = open_session(request.session);
    if (state.session.quarantined()) {
      ++stats_.rejected_quarantined;
      return Response{Status::Quarantined, 0,
                      state.session.quarantine_reason()};
    }
    // Deterministic load decisions, all before the journal append: a
    // refused event was never acked, so refusing it cannot corrupt
    // anything — the journal holds acked events only.
    if (state.queue.size() >= options_.session_queue_cap) {
      ++stats_.busy;
      return Response{Status::Busy, 0, ""};
    }
    const std::uint64_t backlog = pending_ + in_flight_;
    if (request.priority == Priority::Low &&
        backlog >= options_.global_queue_cap / 2) {
      ++stats_.shed_low;
      return Response{Status::Shed, 0, ""};
    }
    if (request.priority == Priority::Normal &&
        backlog >= options_.global_queue_cap) {
      ++stats_.shed_normal;
      return Response{Status::Shed, 0, ""};
    }
    if (request.priority == Priority::High &&
        backlog >= options_.global_queue_cap) {
      ++stats_.busy;
      return Response{Status::Busy, 0, ""};
    }

    JournalRecord record{state.next_seq, request.event, request.priority,
                         request.payload};
    {
      std::lock_guard<std::mutex> journal_lock(state.journal_mutex);
      state.journal.append(record);  // fsync: the ack barrier
    }
    seq = record.seq;
    ++state.next_seq;
    // The record sink fires under mu_, which serializes all appends —
    // so a standby sees records in exactly journal order. Sinks only
    // buffer (see the typedef contract), so holding mu_ here is cheap.
    if (options_.on_record) options_.on_record(request.session, record);
    state.queue.push_back(std::move(record));
    ++pending_;
    ++stats_.admitted;
    if (!state.scheduled) {
      state.scheduled = true;
      ready_.push_back(&state);
      work_cv_.notify_one();
    }
  }
  // The crash-injection point: the event is durable and about to be
  // acked — the hardest moment for recovery to get right.
  util::fault::hit(util::fault::Site::EventAdmitted);
  return Response{Status::Ok, seq, ""};
}

Response Service::handle_query(const Request& request) {
  switch (request.query) {
    case QueryKind::Ping:
      return Response{Status::Result, 0, "pong"};
    case QueryKind::Stats: {
      std::string body = stats().to_text();
      if (options_.stats_extra) body += options_.stats_extra();
      return Response{Status::Result, 0, std::move(body)};
    }
    case QueryKind::Promote:
      // The daemon intercepts promote before the Service; reaching the
      // Service means there is no replication layer to promote.
      return Response{Status::BadRequest, 0,
                      "promote: this service is not a replica"};
    default:
      break;
  }
  // The range test also fails for NaN.
  if (!(request.deadline_ms >= 0 && request.deadline_ms <= kMaxDeadlineMs)) {
    return Response{
        Status::BadRequest, 0,
        util::format("deadline-ms needs a number in [0, %.0f], got %g",
                     kMaxDeadlineMs, request.deadline_ms)};
  }

  SessionState* state = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    state = find_session(request.session);
  }
  if (state == nullptr) {
    return Response{Status::BadRequest, 0,
                    "unknown session '" + request.session + "'"};
  }

  // Per-request deadline: a query waits at most deadline_ms for the
  // apply lock (a long pipeline run may hold it), then reports `busy`
  // instead of stalling its connection.
  std::unique_lock<std::timed_mutex> apply_lock(state->apply_mutex,
                                                std::defer_lock);
  const auto deadline =
      std::chrono::duration<double, std::milli>(request.deadline_ms);
  if (!apply_lock.try_lock_for(deadline)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.busy;
    return Response{Status::Busy, 0, ""};
  }
  try {
    switch (request.query) {
      case QueryKind::Digest:
        return Response{Status::Result, 0, state->session.digest()};
      case QueryKind::Dump:
        return Response{Status::Result, 0, state->session.dump()};
      case QueryKind::Query:
        return Response{Status::Result, 0,
                        state->session.query(request.payload)};
      default:
        return Response{Status::BadRequest, 0, "unhandled query kind"};
    }
  } catch (const std::exception& e) {
    // Read-only requests never quarantine: the session is untouched.
    return Response{Status::BadRequest, 0, e.what()};
  }
}

void Service::maybe_checkpoint(SessionState& state,
                               std::uint64_t threshold) {
  // Never checkpoint a quarantined session: its engine may hold the
  // partial effects of the poisoning event, which only replaying that
  // event reproduces. Compacting it away would "cure" the session on
  // restart and fork its history.
  if (state.session.quarantined()) return;
  if (state.session.applied_since_checkpoint() < threshold ||
      state.session.applied_seq() == 0) {
    return;
  }
  const std::uint64_t seq = state.session.applied_seq();
  {
    std::lock_guard<std::mutex> journal_lock(state.journal_mutex);
    state.journal.checkpoint(state.session.program_log(), seq);
  }
  state.session.checkpoint_taken();
  if (options_.on_checkpoint) {
    // Callers hold the apply lock, so the digest is the fixpoint at
    // exactly `seq` — the divergence check compares it on the standby
    // once the standby has applied through the same seq.
    options_.on_checkpoint(state.session.id(), seq, state.session.digest());
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.checkpoints;
}

bool Service::apply_one(std::unique_lock<std::mutex>& lock) {
  if (ready_.empty()) return false;
  SessionState* state = ready_.front();
  ready_.pop_front();
  JournalRecord record = std::move(state->queue.front());
  state->queue.pop_front();
  --pending_;
  ++in_flight_;
  lock.unlock();

  util::fault::hit(util::fault::Site::Apply);
  bool applied;
  {
    std::lock_guard<std::timed_mutex> apply_lock(state->apply_mutex);
    applied = state->session.apply(record, &cancel_);
    if (applied && options_.checkpoint_every > 0) {
      maybe_checkpoint(*state, options_.checkpoint_every);
    }
    if (applied && options_.on_applied) {
      options_.on_applied(state->session.id(), record.seq,
                          [state] { return state->session.digest(); });
    }
  }

  lock.lock();
  --in_flight_;
  if (applied) {
    ++stats_.applied;
  } else {
    // Cancelled mid-run (shutdown): the event is journaled and will be
    // replayed by the next recovery; put it back so pending counts
    // stay truthful while this process winds down.
    state->queue.push_front(std::move(record));
    ++pending_;
  }
  if (!state->queue.empty() && applied && !stop_) {
    ready_.push_back(state);
  } else {
    state->scheduled = false;
  }
  if (pending_ + in_flight_ == 0) idle_cv_.notify_all();
  return true;
}

void Service::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !ready_.empty(); });
    if (stop_) return;
    apply_one(lock);
  }
}

std::size_t Service::pump() {
  std::size_t applied = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (apply_one(lock)) ++applied;
  return applied;
}

void Service::drain() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;
    if (workers_.empty()) {
      while (apply_one(lock)) {
      }
    }
    idle_cv_.wait(lock, [this] { return pending_ + in_flight_ == 0; });
  }
  // Checkpoint every healthy session so the next start replays nothing.
  std::vector<SessionState*> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, state] : sessions_) all.push_back(state.get());
  }
  for (SessionState* state : all) {
    std::lock_guard<std::timed_mutex> apply_lock(state->apply_mutex);
    maybe_checkpoint(*state, 1);
  }
}

ServiceStats Service::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats out = stats_;
  out.sessions = sessions_.size();
  out.pending = pending_ + in_flight_;
  out.quarantined_sessions = 0;
  for (const auto& [id, state] : sessions_) {
    if (state->session.quarantined()) ++out.quarantined_sessions;
  }
  return out;
}

std::vector<std::string> Service::session_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [id, state] : sessions_) out.push_back(id);
  return out;
}

std::map<std::string, std::string> Service::session_digests() {
  std::vector<std::pair<std::string, SessionState*>> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, state] : sessions_) all.emplace_back(id, state.get());
  }
  std::map<std::string, std::string> out;
  for (auto& [id, state] : all) {
    std::lock_guard<std::timed_mutex> apply_lock(state->apply_mutex);
    out[id] = state->session.digest();
  }
  return out;
}

void Service::flush() {
  std::unique_lock<std::mutex> lock(mu_);
  if (workers_.empty()) {
    while (apply_one(lock)) {
    }
  }
  idle_cv_.wait(lock, [this] { return pending_ + in_flight_ == 0; });
}

std::optional<Service::JournalPosition> Service::journal_position(
    const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  SessionState* state = find_session(id);
  if (state == nullptr) return std::nullopt;
  std::lock_guard<std::mutex> journal_lock(state->journal_mutex);
  return JournalPosition{state->session.seed(),
                         state->journal.checkpoint_seq(),
                         state->journal.last_seq()};
}

std::optional<std::uint64_t> Service::records_digest(const std::string& id,
                                                     std::uint64_t after,
                                                     std::uint64_t through) {
  std::lock_guard<std::mutex> lock(mu_);
  SessionState* state = find_session(id);
  if (state == nullptr) return std::nullopt;
  std::lock_guard<std::mutex> journal_lock(state->journal_mutex);
  return state->journal.records_digest(after, through);
}

std::vector<JournalRecord> Service::records_after(const std::string& id,
                                                  std::uint64_t after) {
  std::lock_guard<std::mutex> lock(mu_);
  SessionState* state = find_session(id);
  if (state == nullptr) return {};
  std::lock_guard<std::mutex> journal_lock(state->journal_mutex);
  return state->journal.records_after(after);
}

std::optional<Service::ResyncSnapshot> Service::resync_snapshot(
    const std::string& id) {
  SessionState* state = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    state = find_session(id);
  }
  if (state == nullptr) return std::nullopt;
  // Journal state only — no apply lock — so a snapshot never waits
  // behind a long pipeline run, and quarantined sessions (which are
  // never checkpointed after poisoning) snapshot their pre-poisoning
  // checkpoint plus the poisoning tail: replaying it re-quarantines
  // the standby deterministically.
  std::lock_guard<std::mutex> journal_lock(state->journal_mutex);
  ResyncSnapshot out;
  out.seed = state->session.seed();
  out.base_seq = state->journal.checkpoint_seq();
  out.base_program = state->journal.checkpoint_program();
  out.records = state->journal.records_after(out.base_seq);
  return out;
}

Response Service::apply_replicated(const std::string& id, std::uint64_t seed,
                                   const JournalRecord& record) {
  if (record.payload.size() > options_.max_payload_bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected_oversized;
    return Response{Status::TooLarge,
                    0,
                    util::format("payload is %zu bytes, limit %zu",
                                 record.payload.size(),
                                 options_.max_payload_bytes)};
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_ || stop_) return Response{Status::Busy, 0, ""};
  SessionState& state = open_session_seeded(id, seed);
  if (state.session.seed() != seed) {
    return Response{Status::Error, 0,
                    util::format("seed mismatch for session '%s': "
                                 "journal has %llu, primary sent %llu",
                                 id.c_str(),
                                 static_cast<unsigned long long>(
                                     state.session.seed()),
                                 static_cast<unsigned long long>(seed))};
  }
  if (record.seq < state.next_seq) {
    // Idempotent redelivery after a reconnect: already journaled, so
    // acking again is safe and expected.
    return Response{Status::Ok, record.seq, "duplicate"};
  }
  if (record.seq != state.next_seq) {
    return Response{Status::Error, 0,
                    util::format("sequence gap for session '%s': "
                                 "expected %llu, got %llu",
                                 id.c_str(),
                                 static_cast<unsigned long long>(
                                     state.next_seq),
                                 static_cast<unsigned long long>(
                                     record.seq))};
  }
  // No shed/busy/quarantine refusal: the primary already admitted this
  // record, so refusing it here would silently fork history. Session::
  // apply on a quarantined session is a deterministic no-op, so both
  // sides skip poisoned tails identically.
  {
    std::lock_guard<std::mutex> journal_lock(state.journal_mutex);
    state.journal.append(record);  // fsync: the replication ack barrier
  }
  ++state.next_seq;
  if (options_.on_record) options_.on_record(id, record);
  state.queue.push_back(record);
  ++pending_;
  ++stats_.admitted;
  if (!state.scheduled) {
    state.scheduled = true;
    ready_.push_back(&state);
    work_cv_.notify_one();
  }
  return Response{Status::Ok, record.seq, ""};
}

void Service::reset_session(const std::string& id, std::uint64_t seed,
                            std::uint64_t base_seq,
                            const std::string& base_program) {
  std::unique_ptr<SessionState> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it != sessions_.end()) {
      if (it->second->scheduled || !it->second->queue.empty()) {
        throw std::runtime_error("reset_session('" + id +
                                 "'): applies pending — flush() first");
      }
      old = std::move(it->second);
      sessions_.erase(it);
    }
  }
  old.reset();  // close the journal fd before removing the directory
  std::filesystem::remove_all(options_.root / id);
  {
    // Seed a fresh journal holding only the primary's checkpoint, then
    // reopen it through the normal SessionState recovery path — reset
    // streams reuse exactly the machinery a restart would.
    Journal journal(options_.root, id, seed);
    journal.recover();
    if (base_seq > 0 || !base_program.empty()) {
      journal.checkpoint(base_program, base_seq);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  open_session_seeded(id, seed);
}

}  // namespace provmark::serve
