// Deterministic fault injection for the crash-tolerance gates.
//
// `--fault-spec` turns ';'-joined rules into faults at the exact points
// real ones would strike. Every kind is one row of the table in
// fault.cpp — name, trigger site, scope, threshold and extra keys with
// their defaults, action — and docs/robustness.md ("Deterministic fault
// injection") mirrors that table. Rules have no clocks and no
// randomness, so every chaos run reproduces bit-for-bit.
//
// The injector is process-global and disarmed by default: every hit()
// is one atomic load until arm() is called. Shard workers arm with
// their (shard, attempt), cluster members with (member, incarnation),
// serve daemons with (0, 0) and the router with (-1, -1).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace provmark::util::fault {

/// One per row of the kind table, in table order.
enum class FaultKind {
  Crash,
  TornWrite,
  Hang,
  ServeCrash,
  SlowClient,
  ReplLinkDrop,
  ReplicaCrash,
  ReplPartition,
  ClusterMemberCrash,
  MemberHang,
  RouteDrop,
};

/// The points in the program where rules can fire. Each site counts
/// its own hits; a rule's threshold is a count at its kind's site.
enum class Site {
  CellDone,          ///< shard worker: one matrix cell finished
  ArtifactWrite,     ///< shard writer: an artifact is about to be written
  Publish,           ///< shard writer: artifacts staged, about to publish
  EventAdmitted,     ///< serve: an event was journaled and acked
  Apply,             ///< serve worker: an event is about to be applied
  RecordForwarded,   ///< primary: a journal record went to the standby
  RecordJournaled,   ///< standby: a record is fsynced, its ack not sent
  RequestForwarded,  ///< router: a request went to a member
};

const char* kind_name(FaultKind kind);

/// One line per kind, `indent` first: the rule with every key it takes,
/// required keys as placeholders and optional keys at their defaults.
std::string grammar(std::string_view indent);

/// Exit code of the exit actions, chosen to be recognizable in worker
/// fate diagnostics (BSD sysexits' EX_SOFTWARE).
constexpr int kCrashExitCode = 70;

struct FaultRule {
  FaultKind kind = FaultKind::Crash;
  int shard = -1;    ///< target shard, or member id for member kinds
  int attempt = 0;   ///< target attempt or incarnation; -1 = any
  int after = 1;     ///< fire at this hit of the kind's site, or later
  std::string file;  ///< torn-write: artifact name to tear
  /// The kind's amount: keep fraction (torn-write), seconds (hang) or
  /// milliseconds (slow-client, repl-partition).
  double amount = 0;
  int window = -1;  ///< slow-client: applies stalled; -1 = all
};

struct FaultSpec {
  std::vector<FaultRule> rules;
};

/// Parse the `--fault-spec` grammar. Throws std::invalid_argument with a
/// pointed message on a malformed rule or number, an unknown kind, a key
/// the kind's row does not list, or a missing required key.
FaultSpec parse_fault_spec(const std::string& text);

/// Arm `spec` for this process: shard and member rules whose (shard,
/// attempt) match the given pair become live, process-wide rules are
/// always live. Resets every site counter and all fire-once state.
void arm(const FaultSpec& spec, int shard_id, int attempt);

/// Disarm every rule (tests call this between scenarios).
void disarm();

/// True when any rule is live in this process.
bool armed();

/// What the rule that fired at a hit asks its caller to do. Exits,
/// stalls and tears happen inside hit().
struct Effect {
  bool fired = false;       ///< a rule fired at this hit
  bool drop = false;        ///< sever the connection now
  double partition_ms = 0;  ///< >0: black-hole the link this long
};

/// Counts one hit of `site` and applies the live rules due there, in
/// spec order. At ArtifactWrite, pass the artifact's name and content:
/// a torn-write rule for that name truncates `content` in place, so the
/// caller must record the intended digest before the call.
Effect hit(Site site, std::string_view artifact = {},
           std::string* content = nullptr);

/// How many live rules of `kind` have fired in this process since
/// arm(). A fired member-hang rule silences the member's heartbeats.
int fired_count(FaultKind kind);

}  // namespace provmark::util::fault
