#include "bench_suite/generator.h"

#include <vector>

#include "os/kernel.h"
#include "util/rng.h"

namespace provmark::bench_suite {

namespace {

using os::kO_CREAT;
using os::kO_RDONLY;
using os::kO_RDWR;
using os::kO_WRONLY;

/// Hostile decorations attachable to a path segment. None contains '/'
/// (a path segment cannot) or NUL (the kernel would reject the path long
/// before any recorder saw it); everything else that has ever broken a
/// serializer is fair game: separators, quoting, escapes, comment and
/// key-value metacharacters, control bytes, raw UTF-8 and stray
/// non-UTF-8 bytes.
const char* const kHostileDecorations[] = {
    " sp ace",
    "\nnew\nline",
    "\ttab\tbed",
    "\"quo\"ted\"",
    "\\back\\slash",
    "#hash#",
    "=key=value=",
    "\r\ncrlf",
    "\x01\x02ctl\x1f",
    "\xc3\xa9t\xc3\xa9",      // "été"
    "\xe2\x98\x83snowman",    // U+2603
    "\xff\xfenot-utf8",
    "mixed \"#=\\\n\x7f end",
};

class Generator {
 public:
  explicit Generator(const GeneratorOptions& options)
      : options_(options), rng_(options.seed ^ 0xAD5E12A1ULL) {}

  BenchmarkProgram take() {
    program_.name = generated_name(options_);
    program_.group = 0;
    program_.family = "Generated";
    emit_background();
    emit_targets();
    return std::move(program_);
  }

 private:
  /// A fresh identifier in a namespace, hostile with the configured
  /// probability. Namespaces keep background ("g"), target ("t") and
  /// never-created ("nf") paths disjoint so op validity never depends on
  /// which variant is running.
  std::string ident(const char* prefix) {
    std::string out = prefix + std::to_string(next_ident_++);
    if (rng_.chance(options_.hostile_probability)) {
      std::size_t n =
          sizeof(kHostileDecorations) / sizeof(kHostileDecorations[0]);
      out += kHostileDecorations[rng_.next_below(n)];
    }
    return out;
  }

  std::string fresh_var() {
    return std::string("v").append(std::to_string(next_var_++));
  }

  Op make(OpCode code, bool is_target) {
    Op o;
    o.code = code;
    o.target = is_target;
    return o;
  }

  void push(Op o) { program_.ops.push_back(std::move(o)); }

  // -- background: staged files, opens, reads/writes ----------------------

  void emit_background() {
    int files = 1 + std::min(5, options_.scale / 6);
    for (int i = 0; i < files; ++i) {
      std::string path = ident("g");
      StageAction stage;
      stage.kind = StageAction::Kind::File;
      stage.path = path;
      program_.staging.push_back(stage);
      Op open = make(OpCode::Open, false);
      open.path = path;
      open.flags = kO_RDWR;
      open.out = fresh_var();
      std::string fd = open.out;
      push(std::move(open));
      Op io = make(rng_.chance(0.5) ? OpCode::Read : OpCode::Write, false);
      io.var = fd;
      io.a = 1 + static_cast<long>(rng_.next_below(4096));
      push(std::move(io));
      bg_fds_.push_back(fd);
    }
  }

  // -- target stream ------------------------------------------------------

  struct SocketState {
    std::string var;
    bool listening = false;
  };

  void emit_targets() {
    int spawns_left = std::max(0, options_.depth * options_.fan_out);
    for (int step = 0; step < options_.scale; ++step) {
      if (spawns_left > 0 &&
          rng_.chance(static_cast<double>(spawns_left) /
                      (options_.scale - step))) {
        emit_spawn();
        --spawns_left;
        continue;
      }
      emit_one();
    }
    // The generated region always ends with at least one op (scale could
    // be 0): a parse-level invariant is that programs have ops.
    if (program_.ops.empty()) emit_one();
  }

  void emit_spawn() {
    static const OpCode kSpawns[] = {OpCode::Fork, OpCode::VFork,
                                     OpCode::Clone, OpCode::Thread};
    Op o = make(kSpawns[rng_.next_below(4)], true);
    o.out = fresh_var();
    push(std::move(o));
  }

  void emit_one() {
    switch (rng_.next_below(10)) {
      case 0: emit_creat(); break;
      case 1: emit_io(); break;
      case 2: emit_rename(); break;
      case 3: emit_unlink(); break;
      case 4: emit_symlink(); break;
      case 5: emit_pipe(); break;
      case 6: emit_chmod(); break;
      case 7:
        if (options_.network)
          emit_socket_activity();
        else
          emit_creat();
        break;
      case 8:
        if (options_.memory)
          emit_mmap_activity();
        else
          emit_io();
        break;
      default:
        if (options_.failure_probes)
          emit_failure_probe();
        else
          emit_creat();
        break;
    }
  }

  void emit_creat() {
    Op o = make(OpCode::Creat, true);
    o.path = ident("t");
    o.out = fresh_var();
    created_.push_back(o.path);
    fds_.push_back(o.out);
    push(std::move(o));
  }

  void emit_io() {
    if (fds_.empty()) return emit_creat();
    static const OpCode kIo[] = {OpCode::Read, OpCode::Write, OpCode::PRead,
                                 OpCode::PWrite};
    Op o = make(kIo[rng_.next_below(4)], true);
    o.var = fds_[rng_.next_below(fds_.size())];
    o.a = 1 + static_cast<long>(rng_.next_below(4096));
    if (o.code == OpCode::PRead || o.code == OpCode::PWrite) {
      o.b = static_cast<long>(rng_.next_below(512));
    }
    push(std::move(o));
  }

  void emit_rename() {
    if (created_.empty()) return emit_creat();
    std::size_t pick = rng_.next_below(created_.size());
    Op o = make(rng_.chance(0.5) ? OpCode::Rename : OpCode::RenameAt, true);
    o.path = created_[pick];
    o.path2 = ident("t");
    created_[pick] = o.path2;  // the file lives on under its new name
    push(std::move(o));
  }

  void emit_unlink() {
    if (created_.empty()) return emit_creat();
    std::size_t pick = rng_.next_below(created_.size());
    Op o = make(rng_.chance(0.5) ? OpCode::Unlink : OpCode::UnlinkAt, true);
    o.path = created_[pick];
    created_.erase(created_.begin() + static_cast<long>(pick));
    push(std::move(o));
  }

  void emit_symlink() {
    if (created_.empty()) return emit_creat();
    Op o = make(OpCode::Symlink, true);
    o.path = created_[rng_.next_below(created_.size())];  // link target
    o.path2 = ident("t");                                 // link path
    push(std::move(o));
  }

  void emit_pipe() {
    Op o = make(rng_.chance(0.5) ? OpCode::Pipe : OpCode::Pipe2, true);
    o.out = fresh_var();
    o.out2 = fresh_var();
    std::string read_end = o.out;
    std::string write_end = o.out2;
    push(std::move(o));
    if (rng_.chance(0.5)) {
      Op io = make(OpCode::Write, true);
      io.var = write_end;
      io.a = 1 + static_cast<long>(rng_.next_below(512));
      push(std::move(io));
    }
  }

  void emit_chmod() {
    if (created_.empty()) return emit_creat();
    Op o = make(OpCode::Chmod, true);
    o.path = created_[rng_.next_below(created_.size())];
    o.mode = 0600 + static_cast<int>(rng_.next_below(7)) * 010;
    push(std::move(o));
  }

  void emit_socket_activity() {
    if (sockets_.empty() || rng_.chance(0.4)) {
      Op o = make(OpCode::Socket, true);
      o.a = rng_.chance(0.3) ? 1 : 2;  // AF_UNIX | AF_INET
      o.b = rng_.chance(0.3) ? 2 : 1;  // SOCK_DGRAM | SOCK_STREAM
      o.out = fresh_var();
      sockets_.push_back({o.out, false});
      push(std::move(o));
      return;
    }
    // Index, not reference: the accept branch grows the vector.
    std::size_t pick = rng_.next_below(sockets_.size());
    switch (rng_.next_below(5)) {
      case 0: {
        Op o = make(OpCode::Bind, true);
        o.var = sockets_[pick].var;
        o.path = "10.0." + std::to_string(rng_.next_below(256)) + "." +
                 std::to_string(rng_.next_below(256)) + ":" +
                 std::to_string(1024 + rng_.next_below(60000));
        push(std::move(o));
        break;
      }
      case 1: {
        if (sockets_[pick].listening) {
          Op o = make(OpCode::Accept, true);
          o.var = sockets_[pick].var;
          o.out = fresh_var();
          sockets_.push_back({o.out, false});
          push(std::move(o));
        } else {
          Op o = make(OpCode::Connect, true);
          o.var = sockets_[pick].var;
          o.path = "192.168." + std::to_string(rng_.next_below(256)) +
                   ".1:" + std::to_string(1024 + rng_.next_below(60000));
          push(std::move(o));
        }
        break;
      }
      case 2: {
        Op o = make(OpCode::Listen, true);
        o.var = sockets_[pick].var;
        o.a = 1 + static_cast<long>(rng_.next_below(128));
        sockets_[pick].listening = true;
        push(std::move(o));
        break;
      }
      case 3: {
        Op o = make(OpCode::SendTo, true);
        o.var = sockets_[pick].var;
        o.a = 1 + static_cast<long>(rng_.next_below(65536));
        push(std::move(o));
        break;
      }
      default: {
        Op o = make(OpCode::RecvFrom, true);
        o.var = sockets_[pick].var;
        o.a = 1 + static_cast<long>(rng_.next_below(65536));
        push(std::move(o));
        break;
      }
    }
  }

  void emit_mmap_activity() {
    if (fds_.empty()) return emit_creat();
    Op o = make(OpCode::Mmap, true);
    o.var = fds_[rng_.next_below(fds_.size())];
    o.a = 4096 * (1 + static_cast<long>(rng_.next_below(16)));
    static const long kProt[] = {1, 2, 3, 5};  // R, W, RW, RX
    o.b = kProt[rng_.next_below(4)];
    long length = o.a;
    push(std::move(o));
    if (rng_.chance(0.5)) {
      Op u = make(OpCode::Munmap, true);
      u.a = length;
      push(std::move(u));
    }
  }

  /// A deterministic expected-failure op: open of a path in the
  /// never-created namespace (ENOENT for any caller), or an op on an
  /// invalid descriptor. Exercises the kernel's error paths and the
  /// behaviour checker's failure branch in every recorder.
  void emit_failure_probe() {
    if (rng_.chance(0.5)) {
      Op o = make(OpCode::Open, true);
      o.target = true;
      o.expect_failure = true;
      o.path = ident("nf");
      o.flags = kO_RDONLY;
      push(std::move(o));
    } else {
      Op o = make(OpCode::Close, true);
      o.expect_failure = true;
      o.a = 999 + static_cast<long>(rng_.next_below(1000));  // bad fd
      push(std::move(o));
    }
  }

  const GeneratorOptions& options_;
  util::Rng rng_;
  BenchmarkProgram program_;
  int next_ident_ = 0;
  int next_var_ = 0;
  std::vector<std::string> created_;      ///< target files that exist
  std::vector<std::string> fds_;          ///< open target fd variables
  std::vector<std::string> bg_fds_;       ///< background fd variables
  std::vector<SocketState> sockets_;
};

}  // namespace

BenchmarkProgram generate_program(const GeneratorOptions& options) {
  return Generator(options).take();
}

std::string generated_name(const GeneratorOptions& options) {
  return "gen" + std::to_string(options.seed) + "x" +
         std::to_string(options.scale);
}

std::optional<GeneratorOptions> parse_generated_name(
    const std::string& name) {
  if (name.size() < 5 || name.compare(0, 3, "gen") != 0) {
    return std::nullopt;
  }
  std::size_t x = name.find('x', 3);
  if (x == std::string::npos || x == 3 || x + 1 >= name.size()) {
    return std::nullopt;
  }
  GeneratorOptions options;
  std::uint64_t seed = 0;
  for (std::size_t i = 3; i < x; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    seed = seed * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  long scale = 0;
  for (std::size_t i = x + 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    scale = scale * 10 + (name[i] - '0');
    if (scale > 100000) return std::nullopt;
  }
  options.seed = seed;
  options.scale = static_cast<int>(scale);
  return options;
}

}  // namespace provmark::bench_suite
