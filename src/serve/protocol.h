// Wire protocol of the streaming provenance service (docs/serve.md).
//
// A request is one line of fields, read by util::FieldReader: runs of
// bytes other than ' ', separated by one or more spaces. Payload fields
// are escaped (util::escape_field) so any byte sequence — clause text
// with spaces and newlines, whole benchmark programs — rides in a single
// field. The same framing
// is used on the AF_UNIX socket (`provmark serve` / `provmark feed`),
// in the in-process Service API tests, and for the journal's record
// payloads, so a journaled event replays through exactly the code path
// that admitted it.
//
// Requests:
//   event <session> <fact|rule|run> <low|normal|high> <payload>
//   query <session> <deadline-ms> <pattern>     e.g. path(a,X)
//   digest <session> <deadline-ms>              fixpoint digest
//   dump <session> <deadline-ms>                canonical fixpoint dump
//   stats                                       service counters
//   ping
//   promote                                     replica -> primary switch
//
// Responses:
//   ok <seq>                  event journaled and acked (durable)
//   result <body>             query/digest/dump/stats/ping payload
//   shed                      load-shed: retry later, event NOT journaled
//   busy                      backpressure: queue full / lock deadline
//   quarantined <reason>      session is poisoned; events refused
//   too-large <message>       payload exceeds the input-size guard
//   bad-request <message>     malformed request line
//   error <message>           internal failure
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace provmark::serve {

/// Mutating, journaled event kinds. `fact` and `rule` payloads are
/// Datalog program text loaded into the session engine; `run` payloads
/// are "<system>\n<benchmark program text>" — the pipeline runs with a
/// seed derived from (session seed, event seq) and the result graph is
/// asserted into the engine as facts.
enum class EventKind { Fact, Rule, Run };

/// Read-only request kinds; never journaled, never mutate a session.
/// Promote is the one exception to "read-only": it asks a standby
/// daemon to stop tailing its primary and start serving (docs/serve.md,
/// Replication & failover) — the daemon intercepts it before the
/// Service ever sees it, so sessions are still never mutated by a
/// QueryKind.
enum class QueryKind { Query, Digest, Dump, Stats, Ping, Promote };

/// Shedding priority of an event. Under load, Low sheds first (at half
/// the global budget), Normal at the full budget; High is never
/// silently shed — it gets `busy` backpressure instead.
enum class Priority { Low = 0, Normal = 1, High = 2 };

/// The largest deadline-ms a request may carry: one day. Service::submit
/// answers a negative, larger or NaN deadline with `bad-request` before
/// the lock wait, which converts the deadline to integer nanoseconds.
constexpr double kMaxDeadlineMs = 86'400'000;

struct Request {
  bool is_event = false;
  EventKind event = EventKind::Fact;
  QueryKind query = QueryKind::Ping;
  std::string session;
  Priority priority = Priority::Normal;
  double deadline_ms = 1000;  ///< read-only requests: lock-wait budget
  std::string payload;
};

enum class Status {
  Ok,
  Result,
  Shed,
  Busy,
  Quarantined,
  TooLarge,
  BadRequest,
  Error,
};

struct Response {
  Status status = Status::Error;
  std::uint64_t seq = 0;  ///< journal sequence (Ok only)
  std::string body;       ///< result payload or diagnostic message
};

const char* event_kind_name(EventKind kind);
const char* query_kind_name(QueryKind kind);
const char* priority_name(Priority priority);
const char* status_name(Status status);

/// Inverses of event_kind_name and priority_name. Throw
/// std::invalid_argument naming the accepted values.
EventKind parse_event_kind(std::string_view name);
Priority parse_priority(std::string_view name);

/// Serialize a request as one line (no trailing newline).
std::string format_request(const Request& request);

/// Parse one request line. Throws std::invalid_argument with a pointed
/// message on any malformed field.
Request parse_request(std::string_view line);

/// Serialize a response as one line (no trailing newline).
std::string format_response(const Response& response);

/// Parse one response line (the feed client and tests use this).
Response parse_response(std::string_view line);

/// True when `id` is a protocol-legal session id: 1..128 chars of
/// [A-Za-z0-9._-] and not "." / "..". Session ids become journal
/// directory names, so the replication layer re-validates every id
/// arriving on the wire with this before touching the filesystem.
bool valid_session_id(std::string_view id);

}  // namespace provmark::serve
