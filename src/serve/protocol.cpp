#include "serve/protocol.h"

#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "util/strings.h"

namespace provmark::serve {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("serve protocol: " + message);
}

EventKind parse_event_kind(const std::string& name) {
  if (name == "fact") return EventKind::Fact;
  if (name == "rule") return EventKind::Rule;
  if (name == "run") return EventKind::Run;
  fail("unknown event kind '" + name + "' (fact | rule | run)");
}

Priority parse_priority(const std::string& name) {
  if (name == "low") return Priority::Low;
  if (name == "normal") return Priority::Normal;
  if (name == "high") return Priority::High;
  fail("unknown priority '" + name + "' (low | normal | high)");
}

double parse_deadline(const std::string& text) {
  char* end = nullptr;
  const double ms = std::strtod(text.c_str(), &end);
  // The range test also fails for NaN.
  if (text.empty() || *end != '\0' || !(ms >= 0 && ms <= kMaxDeadlineMs)) {
    fail(util::format("deadline-ms needs a number in [0, %.0f], got '%s'",
                      kMaxDeadlineMs, text.c_str()));
  }
  return ms;
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

std::string escape_field(std::string_view s) {
  if (s.empty()) return "\\0";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case ' ': out += "\\s"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

std::string unescape_field(std::string_view s) {
  if (s == "\\0") return "";
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= s.size()) fail("dangling escape in field");
    switch (s[i]) {
      case '\\': out += '\\'; break;
      case 's': out += ' '; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default: fail(std::string("unknown escape '\\") + s[i] + "'");
    }
  }
  return out;
}

std::string format_request(const Request& request) {
  if (request.is_event) {
    return std::string("event ") + request.session + " " +
           event_kind_name(request.event) + " " +
           priority_name(request.priority) + " " +
           escape_field(request.payload);
  }
  switch (request.query) {
    case QueryKind::Stats: return "stats";
    case QueryKind::Ping: return "ping";
    case QueryKind::Promote: return "promote";
    case QueryKind::Query:
      return "query " + request.session + " " +
             util::format("%g", request.deadline_ms) + " " +
             escape_field(request.payload);
    case QueryKind::Digest:
    case QueryKind::Dump:
      return std::string(query_kind_name(request.query)) + " " +
             request.session + " " + util::format("%g", request.deadline_ms);
  }
  return "ping";
}

Request parse_request(std::string_view line) {
  std::vector<std::string> fields = util::split_nonempty(line, ' ');
  if (fields.empty()) fail("empty request");
  Request request;
  const std::string& verb = fields[0];
  if (verb == "event") {
    if (fields.size() != 5) {
      fail("event needs: event <session> <kind> <priority> <payload>");
    }
    request.is_event = true;
    request.session = fields[1];
    check_session(request.session);
    request.event = parse_event_kind(fields[2]);
    request.priority = parse_priority(fields[3]);
    request.payload = unescape_field(fields[4]);
    return request;
  }
  if (verb == "query") {
    if (fields.size() != 4) {
      fail("query needs: query <session> <deadline-ms> <pattern>");
    }
    request.query = QueryKind::Query;
    request.session = fields[1];
    check_session(request.session);
    request.deadline_ms = parse_deadline(fields[2]);
    request.payload = unescape_field(fields[3]);
    return request;
  }
  if (verb == "digest" || verb == "dump") {
    if (fields.size() != 3) {
      fail(verb + " needs: " + verb + " <session> <deadline-ms>");
    }
    request.query = verb == "digest" ? QueryKind::Digest : QueryKind::Dump;
    request.session = fields[1];
    check_session(request.session);
    request.deadline_ms = parse_deadline(fields[2]);
    return request;
  }
  if (verb == "stats" && fields.size() == 1) {
    request.query = QueryKind::Stats;
    return request;
  }
  if (verb == "ping" && fields.size() == 1) {
    request.query = QueryKind::Ping;
    return request;
  }
  if (verb == "promote" && fields.size() == 1) {
    request.query = QueryKind::Promote;
    return request;
  }
  fail("unknown request '" + verb +
       "' (event | query | digest | dump | stats | ping | promote)");
}

std::string format_response(const Response& response) {
  switch (response.status) {
    case Status::Ok:
      return util::format("ok %llu",
                          static_cast<unsigned long long>(response.seq));
    case Status::Result:
      return "result " + escape_field(response.body);
    case Status::Shed:
      return "shed";
    case Status::Busy:
      return "busy";
    case Status::Quarantined:
      return "quarantined " + escape_field(response.body);
    case Status::TooLarge:
      return "too-large " + escape_field(response.body);
    case Status::BadRequest:
      return "bad-request " + escape_field(response.body);
    case Status::Error:
      return "error " + escape_field(response.body);
  }
  return "error " + escape_field("unknown status");
}

Response parse_response(std::string_view line) {
  std::vector<std::string> fields = util::split_nonempty(line, ' ');
  if (fields.empty()) fail("empty response");
  Response response;
  const std::string& verb = fields[0];
  if (verb == "ok") {
    if (fields.size() != 2) fail("ok needs a sequence number");
    response.status = Status::Ok;
    try {
      response.seq = util::parse_u64(fields[1]);
    } catch (const std::invalid_argument& e) {
      fail(std::string("ok sequence number: ") + e.what());
    }
    return response;
  }
  if ((verb == "shed" || verb == "busy") && fields.size() == 1) {
    response.status = verb == "shed" ? Status::Shed : Status::Busy;
    return response;
  }
  for (Status status : {Status::Result, Status::Quarantined, Status::TooLarge,
                        Status::BadRequest, Status::Error}) {
    if (verb == status_name(status)) {
      if (fields.size() != 2) fail(verb + " needs one payload field");
      response.status = status;
      response.body = unescape_field(fields[1]);
      return response;
    }
  }
  fail("unknown response '" + verb + "'");
}

}  // namespace provmark::serve
