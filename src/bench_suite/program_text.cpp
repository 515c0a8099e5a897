#include "bench_suite/program_text.h"

#include <map>
#include <stdexcept>

#include "os/kernel.h"
#include "util/strings.h"

namespace provmark::bench_suite {

namespace {

const std::map<std::string, OpCode>& opcode_names() {
  static const std::map<std::string, OpCode> kNames = [] {
    std::map<std::string, OpCode> names;
    for (int i = 0; i <= static_cast<int>(OpCode::Thread); ++i) {
      OpCode code = static_cast<OpCode>(i);
      names[opcode_name(code)] = code;
    }
    return names;
  }();
  return kNames;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& message) {
  throw std::invalid_argument("program line " + std::to_string(line_no) +
                              ": " + message);
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Split a line into tokens. Tokens are space/tab separated; a token (or
/// part of one) may be double-quoted, which protects separators and
/// supports the escapes \\ \" \n \r \t and \xHH — this is how hostile
/// identifiers (spaces, newlines, quotes, raw bytes) survive the text
/// form. An *unquoted* token starting with '#' begins a comment running to
/// end of line (backward compatible with the old " # remark" convention).
std::vector<std::string> tokenize(std::string_view line,
                                  std::size_t line_no) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size()) break;
    if (line[i] == '#') break;  // comment to end of line
    std::string token;
    bool quoted = false;
    while (i < line.size()) {
      char c = line[i];
      if (c == '"') {
        ++i;
        quoted = true;
        bool closed = false;
        while (i < line.size()) {
          char q = line[i];
          if (q == '"') {
            ++i;
            closed = true;
            break;
          }
          if (q == '\\') {
            ++i;
            if (i >= line.size()) fail(line_no, "dangling escape");
            char e = line[i++];
            switch (e) {
              case '\\': token += '\\'; break;
              case '"': token += '"'; break;
              case 'n': token += '\n'; break;
              case 'r': token += '\r'; break;
              case 't': token += '\t'; break;
              case 'x': {
                if (i + 1 >= line.size()) {
                  fail(line_no, "truncated \\x escape");
                }
                int hi = hex_digit(line[i]);
                int lo = hex_digit(line[i + 1]);
                if (hi < 0 || lo < 0) fail(line_no, "invalid \\x escape");
                token += static_cast<char>(hi * 16 + lo);
                i += 2;
                break;
              }
              default:
                fail(line_no,
                     "unknown escape '\\" + std::string(1, e) + "'");
            }
            continue;
          }
          token += q;
          ++i;
        }
        if (!closed) fail(line_no, "unterminated quote");
        continue;
      }
      if (c == ' ' || c == '\t') break;
      token += c;
      ++i;
    }
    if (!token.empty() || quoted) tokens.push_back(std::move(token));
  }
  return tokens;
}

/// Does a value survive as a bare token? Anything the tokenizer treats
/// specially — separators, quotes, backslash, comment lead, control
/// bytes, the empty string — must be quoted on output.
bool needs_quoting(const std::string& value) {
  if (value.empty()) return true;
  if (value.front() == '#') return true;
  for (char raw : value) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (c == ' ' || c == '\t' || c == '"' || c == '\\' || c < 0x20 ||
        c == 0x7f) {
      return true;
    }
  }
  return false;
}

std::string quote_token(const std::string& value) {
  if (!needs_quoting(value)) return value;
  std::string out = "\"";
  for (char raw : value) {
    unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20 || c == 0x7f) {
          out += util::format("\\x%02x", c);
        } else {
          out += raw;  // bytes >= 0x80 pass through (UTF-8 stays UTF-8)
        }
    }
  }
  out += "\"";
  return out;
}

/// util::parse_number<long>, its failure reported with the line number.
long parse_long(const std::string& value, std::size_t line_no,
                int base = 10) {
  const std::optional<long> v = util::parse_number<long>(value, base);
  if (!v) fail(line_no, "invalid number '" + value + "'");
  return *v;
}

int parse_flags(const std::string& text, std::size_t line_no) {
  int flags = 0;
  for (const std::string& piece : util::split_nonempty(text, '+')) {
    const os::FlagName* flag =
        os::find_flag(os::kOpenFlagNames, &os::FlagName::short_name, piece);
    if (flag == nullptr) fail(line_no, "unknown flag '" + piece + "'");
    flags |= flag->bits;
  }
  return flags;
}

std::string flags_to_text(int flags) {
  // Access mode 03 has no program-text name and prints as "r".
  if ((flags & os::kO_ACCMODE) == os::kO_ACCMODE) flags &= ~os::kO_ACCMODE;
  return os::flag_names(os::kOpenFlagNames, flags, &os::FlagName::short_name,
                        '+');
}

/// Parse `key=value` tokens into a map; bare tokens map to "".
std::map<std::string, std::string> parse_kv(
    const std::vector<std::string>& tokens, std::size_t start,
    std::size_t line_no) {
  std::map<std::string, std::string> kv;
  for (std::size_t i = start; i < tokens.size(); ++i) {
    std::size_t eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      fail(line_no, "expected key=value, found '" + tokens[i] + "'");
    }
    kv[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
  }
  return kv;
}

Op parse_op_line(const std::vector<std::string>& tokens,
                 std::size_t line_no) {
  if (tokens.size() < 2) fail(line_no, "missing op code");
  Op o;
  const std::string& keyword = tokens[0];
  o.target = keyword != "op";
  o.expect_failure = keyword == "target!";
  o.may_fail = keyword == "target?";
  auto it = opcode_names().find(tokens[1]);
  if (it == opcode_names().end()) {
    fail(line_no, "unknown op '" + tokens[1] + "'");
  }
  o.code = it->second;
  for (const auto& [key, value] : parse_kv(tokens, 2, line_no)) {
    if (key == "path") {
      o.path = value;
    } else if (key == "path2") {
      o.path2 = value;
    } else if (key == "var") {
      o.var = value;
    } else if (key == "var2") {
      o.var2 = value;
    } else if (key == "out") {
      o.out = value;
    } else if (key == "out2") {
      o.out2 = value;
    } else if (key == "flags") {
      o.flags = parse_flags(value, line_no);
    } else if (key == "mode") {
      o.mode = static_cast<int>(parse_long(value, line_no, 8));
    } else if (key == "a") {
      o.a = parse_long(value, line_no);
    } else if (key == "b") {
      o.b = parse_long(value, line_no);
    } else if (key == "c") {
      o.c = parse_long(value, line_no);
    } else {
      fail(line_no, "unknown op argument '" + key + "'");
    }
  }
  return o;
}

StageAction parse_stage_line(const std::vector<std::string>& tokens,
                             std::size_t line_no) {
  if (tokens.size() < 3) fail(line_no, "stage needs a kind and a path");
  StageAction action;
  const std::string& kind = tokens[1];
  if (kind == "file") {
    action.kind = StageAction::Kind::File;
  } else if (kind == "fifo") {
    action.kind = StageAction::Kind::Fifo;
  } else if (kind == "symlink") {
    action.kind = StageAction::Kind::Symlink;
  } else if (kind == "remove") {
    action.kind = StageAction::Kind::Remove;
  } else {
    fail(line_no, "unknown stage kind '" + kind + "'");
  }
  action.path = tokens[2];
  for (const auto& [key, value] : parse_kv(tokens, 3, line_no)) {
    if (key == "mode") {
      action.mode = static_cast<int>(parse_long(value, line_no, 8));
    } else if (key == "uid") {
      action.uid = static_cast<int>(parse_long(value, line_no));
      action.gid = action.uid;
    } else if (key == "target") {
      action.target = value;
    } else {
      fail(line_no, "unknown stage argument '" + key + "'");
    }
  }
  return action;
}

}  // namespace

OpCode opcode_from_name(std::string_view name) {
  auto it = opcode_names().find(std::string(name));
  if (it == opcode_names().end()) {
    throw std::invalid_argument("unknown op name: " + std::string(name));
  }
  return it->second;
}

BenchmarkProgram parse_program(std::string_view text,
                               std::size_t max_bytes) {
  util::check_input_size("benchmark program text", text.size(), max_bytes);
  BenchmarkProgram program;
  std::size_t line_no = 0;
  bool named = false;
  for (const std::string& raw_line : util::split(text, '\n')) {
    ++line_no;
    std::vector<std::string> tokens = tokenize(raw_line, line_no);
    if (tokens.empty()) continue;  // blank or comment-only line
    const std::string& keyword = tokens[0];
    if (keyword == "name") {
      if (tokens.size() != 2) fail(line_no, "name needs one argument");
      program.name = tokens[1];
      named = true;
    } else if (keyword == "group") {
      if (tokens.size() < 2) fail(line_no, "group needs a number");
      program.group = static_cast<int>(parse_long(tokens[1], line_no));
      if (tokens.size() > 2) program.family = tokens[2];
    } else if (keyword == "creds") {
      if (tokens.size() != 2) fail(line_no, "creds needs a uid");
      int uid = static_cast<int>(parse_long(tokens[1], line_no));
      program.creds = os::Credentials{uid, uid, uid, uid, uid, uid};
    } else if (keyword == "shuffle-targets") {
      program.shuffle_targets = true;
    } else if (keyword == "stage") {
      program.staging.push_back(parse_stage_line(tokens, line_no));
    } else if (keyword == "op" || keyword == "target" ||
               keyword == "target!" || keyword == "target?") {
      program.ops.push_back(parse_op_line(tokens, line_no));
    } else {
      fail(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  if (!named) throw std::invalid_argument("program has no name line");
  if (program.ops.empty()) {
    throw std::invalid_argument("program has no ops");
  }
  return program;
}

std::string format_program(const BenchmarkProgram& program) {
  std::string out = "name " + quote_token(program.name) + "\n";
  out += "group " + std::to_string(program.group);
  if (!program.family.empty()) out += " " + quote_token(program.family);
  out += "\n";
  if (program.creds.has_value()) {
    out += "creds " + std::to_string(program.creds->uid) + "\n";
  }
  if (program.shuffle_targets) out += "shuffle-targets\n";
  for (const StageAction& action : program.staging) {
    out += "stage ";
    switch (action.kind) {
      case StageAction::Kind::File:
        out += "file " + quote_token(action.path) +
               util::format(" mode=%o uid=%d", action.mode, action.uid);
        break;
      case StageAction::Kind::Fifo:
        out += "fifo " + quote_token(action.path);
        break;
      case StageAction::Kind::Symlink:
        out += "symlink " + quote_token(action.path) +
               " target=" + quote_token(action.target);
        break;
      case StageAction::Kind::Remove:
        out += "remove " + quote_token(action.path);
        break;
    }
    out += "\n";
  }
  for (const Op& o : program.ops) {
    out += o.target ? (o.expect_failure ? "target!"
                       : o.may_fail     ? "target?"
                                        : "target")
                    : "op";
    out += " ";
    out += opcode_name(o.code);
    if (!o.path.empty()) out += " path=" + quote_token(o.path);
    if (!o.path2.empty()) out += " path2=" + quote_token(o.path2);
    if (!o.var.empty()) out += " var=" + quote_token(o.var);
    if (!o.var2.empty()) out += " var2=" + quote_token(o.var2);
    if (!o.out.empty()) out += " out=" + quote_token(o.out);
    if (!o.out2.empty()) out += " out2=" + quote_token(o.out2);
    if (o.code == OpCode::Open || o.code == OpCode::OpenAt) {
      out += " flags=" + flags_to_text(o.flags);
    }
    if (o.mode != 0644) out += util::format(" mode=%o", o.mode);
    if (o.a != 0) out += " a=" + std::to_string(o.a);
    if (o.b != 0) out += " b=" + std::to_string(o.b);
    if (o.c != 0) out += " c=" + std::to_string(o.c);
    out += "\n";
  }
  return out;
}

}  // namespace provmark::bench_suite
