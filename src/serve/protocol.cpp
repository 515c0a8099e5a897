#include "serve/protocol.h"

#include <stdexcept>

#include "util/strings.h"

namespace provmark::serve {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument(message);
}

/// Session ids become journal directory names, so restrict them to a
/// filesystem- and protocol-safe alphabet.
void check_session(const std::string& id) {
  if (!valid_session_id(id)) {
    fail("session id '" + id +
         "' must be 1..128 characters of [A-Za-z0-9._-]");
  }
}

}  // namespace

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::Fact: return "fact";
    case EventKind::Rule: return "rule";
    case EventKind::Run: return "run";
  }
  return "?";
}

const char* query_kind_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::Query: return "query";
    case QueryKind::Digest: return "digest";
    case QueryKind::Dump: return "dump";
    case QueryKind::Stats: return "stats";
    case QueryKind::Ping: return "ping";
    case QueryKind::Promote: return "promote";
  }
  return "?";
}

bool valid_session_id(std::string_view id) {
  if (id.empty() || id.size() > 128 || id == "." || id == "..") return false;
  for (char c : id) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

EventKind parse_event_kind(std::string_view name) {
  if (name == "fact") return EventKind::Fact;
  if (name == "rule") return EventKind::Rule;
  if (name == "run") return EventKind::Run;
  fail("unknown event kind '" + std::string(name) + "' (fact | rule | run)");
}

Priority parse_priority(std::string_view name) {
  if (name == "low") return Priority::Low;
  if (name == "normal") return Priority::Normal;
  if (name == "high") return Priority::High;
  fail("unknown priority '" + std::string(name) + "' (low | normal | high)");
}

const char* priority_name(Priority priority) {
  switch (priority) {
    case Priority::Low: return "low";
    case Priority::Normal: return "normal";
    case Priority::High: return "high";
  }
  return "?";
}

const char* status_name(Status status) {
  switch (status) {
    case Status::Ok: return "ok";
    case Status::Result: return "result";
    case Status::Shed: return "shed";
    case Status::Busy: return "busy";
    case Status::Quarantined: return "quarantined";
    case Status::TooLarge: return "too-large";
    case Status::BadRequest: return "bad-request";
    case Status::Error: return "error";
  }
  return "?";
}

std::string format_request(const Request& request) {
  if (request.is_event) {
    return std::string("event ") + request.session + " " +
           event_kind_name(request.event) + " " +
           priority_name(request.priority) + " " +
           util::escape_field(request.payload);
  }
  switch (request.query) {
    case QueryKind::Stats: return "stats";
    case QueryKind::Ping: return "ping";
    case QueryKind::Promote: return "promote";
    case QueryKind::Query:
      return "query " + request.session + " " +
             util::format("%g", request.deadline_ms) + " " +
             util::escape_field(request.payload);
    case QueryKind::Digest:
    case QueryKind::Dump:
      return std::string(query_kind_name(request.query)) + " " +
             request.session + " " + util::format("%g", request.deadline_ms);
  }
  return "ping";
}

Request parse_request(std::string_view line) {
  return util::read_fields<std::invalid_argument>("serve protocol", [&] {
    util::FieldReader fields(line);
    const std::size_t count = fields.left();
    if (count == 0) fail("empty request");
    const std::string verb(fields.word("verb"));
    Request request;
    if (verb == "event") {
      if (count != 5) {
        fail("event needs: event <session> <kind> <priority> <payload>");
      }
      request.is_event = true;
      request.session = fields.word("session");
      check_session(request.session);
      request.event = parse_event_kind(fields.word("event kind"));
      request.priority = parse_priority(fields.word("priority"));
      request.payload = fields.text("payload");
      return request;
    }
    if (verb == "query") {
      if (count != 4) {
        fail("query needs: query <session> <deadline-ms> <pattern>");
      }
      request.query = QueryKind::Query;
      request.session = fields.word("session");
      check_session(request.session);
      // Only a finite number: Service::submit checks the range.
      request.deadline_ms = fields.number<double>("deadline-ms");
      request.payload = fields.text("pattern");
      return request;
    }
    if (verb == "digest" || verb == "dump") {
      if (count != 3) {
        fail(verb + " needs: " + verb + " <session> <deadline-ms>");
      }
      request.query = verb == "digest" ? QueryKind::Digest : QueryKind::Dump;
      request.session = fields.word("session");
      check_session(request.session);
      request.deadline_ms = fields.number<double>("deadline-ms");
      return request;
    }
    if (count == 1) {
      for (QueryKind kind :
           {QueryKind::Stats, QueryKind::Ping, QueryKind::Promote}) {
        if (verb == query_kind_name(kind)) {
          request.query = kind;
          return request;
        }
      }
    }
    fail("unknown request '" + verb +
         "' (event | query | digest | dump | stats | ping | promote)");
  });
}

std::string format_response(const Response& response) {
  switch (response.status) {
    case Status::Ok:
      return util::format("ok %llu",
                          static_cast<unsigned long long>(response.seq));
    case Status::Result:
      return "result " + util::escape_field(response.body);
    case Status::Shed:
      return "shed";
    case Status::Busy:
      return "busy";
    case Status::Quarantined:
      return "quarantined " + util::escape_field(response.body);
    case Status::TooLarge:
      return "too-large " + util::escape_field(response.body);
    case Status::BadRequest:
      return "bad-request " + util::escape_field(response.body);
    case Status::Error:
      return "error " + util::escape_field(response.body);
  }
  return "error " + util::escape_field("unknown status");
}

Response parse_response(std::string_view line) {
  return util::read_fields<std::invalid_argument>("serve protocol", [&] {
    util::FieldReader fields(line);
    const std::size_t count = fields.left();
    if (count == 0) fail("empty response");
    const std::string verb(fields.word("verb"));
    Response response;
    if (verb == "ok") {
      if (count != 2) fail("ok needs a sequence number");
      response.status = Status::Ok;
      response.seq = fields.number<std::uint64_t>("ok sequence number");
      return response;
    }
    if ((verb == "shed" || verb == "busy") && count == 1) {
      response.status = verb == "shed" ? Status::Shed : Status::Busy;
      return response;
    }
    for (Status status : {Status::Result, Status::Quarantined,
                          Status::TooLarge, Status::BadRequest,
                          Status::Error}) {
      if (verb == status_name(status)) {
        if (count != 2) fail(verb + " needs one payload field");
        response.status = status;
        response.body = fields.text("payload");
        return response;
      }
    }
    fail("unknown response '" + verb + "'");
  });
}

}  // namespace provmark::serve
