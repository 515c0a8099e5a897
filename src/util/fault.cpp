#include "util/fault.h"

#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/strings.h"

namespace provmark::util::fault {

namespace {

/// Where a rule arms: shard and member rules only at their (id,
/// attempt) coordinates, process-wide rules in every process that arms.
enum class Scope { Shard, Member, Process };

/// What a rule does when it is due at its site.
enum class Action {
  Exit,       ///< log, then _exit(kCrashExitCode)
  Tear,       ///< cut the artifact named `file` to `amount` of its bytes
  Stall,      ///< sleep `amount` seconds, once
  Throttle,   ///< sleep `amount` ms at each hit in `window`; never fires
  Drop,       ///< ask the caller to sever its link
  Partition,  ///< ask the caller to black-hole its link for `amount` ms
  Latch,      ///< only mark the rule fired
};

/// How an extra key's value is read and bounded. Text lands in `file`,
/// Count in `window`, the numbers in `amount`.
enum class Value { Text, Count, Number, NonNegative, Positive, Fraction };

struct Key {
  std::string_view name;
  Value value = Value::Number;
  double fallback = 0;  ///< default `amount`
};

struct KindRow {
  FaultKind kind;
  std::string_view name;
  Site site;
  Scope scope;
  std::string_view threshold;  ///< key that sets `after`; "" = first hit
  Action action;
  std::array<Key, 2> keys;  ///< extra keys; unused slots are unnamed
};

// The one kind table. docs/robustness.md mirrors it.
constexpr KindRow kKinds[] = {
    {FaultKind::Crash, "crash", Site::CellDone, Scope::Shard, "after-cell",
     Action::Exit, {}},
    {FaultKind::TornWrite, "torn-write", Site::ArtifactWrite, Scope::Shard, "",
     Action::Tear, {{{"file", Value::Text}, {"keep", Value::Fraction, 0.5}}}},
    {FaultKind::Hang, "hang", Site::Publish, Scope::Shard, "", Action::Stall,
     {{{"seconds", Value::Number, 3600}}}},
    {FaultKind::ServeCrash, "serve-crash", Site::EventAdmitted, Scope::Process,
     "after-events", Action::Exit, {}},
    {FaultKind::SlowClient, "slow-client", Site::Apply, Scope::Process, "",
     Action::Throttle,
     {{{"ms", Value::NonNegative, 50}, {"events", Value::Count}}}},
    {FaultKind::ReplLinkDrop, "repl-link-drop", Site::RecordForwarded,
     Scope::Process, "after-records", Action::Drop, {}},
    {FaultKind::ReplicaCrash, "replica-crash", Site::RecordJournaled,
     Scope::Process, "after-records", Action::Exit, {}},
    {FaultKind::ReplPartition, "repl-partition", Site::RecordForwarded,
     Scope::Process, "after-records", Action::Partition,
     {{{"ms", Value::Positive, 500}}}},
    {FaultKind::ClusterMemberCrash, "cluster-member-crash",
     Site::EventAdmitted, Scope::Member, "after-events", Action::Exit, {}},
    {FaultKind::MemberHang, "member-hang", Site::EventAdmitted, Scope::Member,
     "after-events", Action::Latch, {}},
    {FaultKind::RouteDrop, "route-drop", Site::RequestForwarded,
     Scope::Process, "after-requests", Action::Drop, {}},
};

constexpr bool rows_in_kind_order() {
  for (std::size_t i = 0; i < std::size(kKinds); ++i) {
    if (static_cast<std::size_t>(kKinds[i].kind) != i) return false;
  }
  return true;
}
static_assert(rows_in_kind_order(), "kKinds rows must follow FaultKind");

const KindRow& row_of(FaultKind kind) {
  return kKinds[static_cast<std::size_t>(kind)];
}

/// What one hit of each site is called in the log, in Site order.
constexpr const char* kSiteNouns[] = {"cell",  "artifact", "publish",
                                      "event", "apply",    "record",
                                      "record", "request"};
static_assert(std::size(kSiteNouns) ==
                  static_cast<std::size_t>(Site::RequestForwarded) + 1,
              "one noun per Site");

/// The key naming each scope's coordinate, in Scope order.
constexpr std::string_view kCoordinateKeys[] = {"shard", "member", ""};

std::string coordinate_key(Scope scope) {
  return std::string(kCoordinateKeys[static_cast<int>(scope)]);
}

/// Live (armed) rules plus their fire-once flags, guarded by a mutex;
/// `g_armed` is the fast path every disarmed hit takes.
struct LiveRule {
  FaultRule rule;
  bool fired = false;
};

std::atomic<bool> g_armed{false};
std::mutex g_mutex;
std::vector<LiveRule> g_rules;
std::array<std::atomic<int>, std::size(kSiteNouns)> g_hits{};

[[noreturn]] void reject(const std::string& message) {
  throw std::invalid_argument("fault-spec: " + message);
}

int parse_int(std::string_view key, std::string_view value) {
  const std::optional<int> parsed = parse_number<int>(value);
  if (!parsed) {
    reject(std::string(key) + " needs a decimal integer, got '" +
           std::string(value) + "'");
  }
  return *parsed;
}

double parse_real(std::string_view key, std::string_view value) {
  const std::optional<double> parsed = parse_number<double>(value);
  if (!parsed) {
    reject(std::string(key) + " needs a finite number, got '" +
           std::string(value) + "'");
  }
  return *parsed;
}

int parse_count(std::string_view key, std::string_view value) {
  const int count = parse_int(key, value);
  if (count < 1) reject(std::string(key) + " must be >= 1");
  return count;
}

bool sets_amount(const Key& key) {
  return !key.name.empty() && key.value != Value::Text &&
         key.value != Value::Count;
}

void set_extra(FaultRule& rule, const Key& key, std::string_view value) {
  const std::string name(key.name);
  if (key.value == Value::Text) {
    rule.file = value;
    return;
  }
  if (key.value == Value::Count) {
    rule.window = parse_count(name, value);
    return;
  }
  const double number = parse_real(name, value);
  if (key.value == Value::NonNegative && number < 0) {
    reject(name + " must be >= 0");
  }
  if (key.value == Value::Positive && number <= 0) {
    reject(name + " must be > 0");
  }
  if (key.value == Value::Fraction && (number < 0 || number >= 1)) {
    reject(name + " must be in [0, 1)");
  }
  rule.amount = number;
}

FaultRule parse_rule(const std::string& clause) {
  const std::size_t colon = clause.find(':');
  if (colon == std::string::npos) {
    reject("rule '" + clause +
           "' needs the form kind:key=value[,key=value...]");
  }
  const std::string name(util::trim(std::string_view(clause).substr(0, colon)));
  const KindRow* row = nullptr;
  std::string names;
  for (const KindRow& candidate : kKinds) {
    if (candidate.name == name) row = &candidate;
    if (!names.empty()) names += " | ";
    names += candidate.name;
  }
  if (row == nullptr) {
    reject("unknown fault kind '" + name + "' (" + names + ")");
  }
  FaultRule rule;
  rule.kind = row->kind;
  for (const Key& key : row->keys) {
    if (sets_amount(key)) rule.amount = key.fallback;
  }
  const std::string coordinate = coordinate_key(row->scope);
  for (const std::string& param :
       util::split_nonempty(clause.substr(colon + 1), ',')) {
    const std::size_t eq = param.find('=');
    const std::string key(util::trim(std::string_view(param).substr(0, eq)));
    if (eq == std::string::npos || key.empty()) {
      reject("parameter '" + param + "' needs the form key=value");
    }
    const std::string_view value =
        util::trim(std::string_view(param).substr(eq + 1));
    const Key* extra = nullptr;
    for (const Key& candidate : row->keys) {
      if (candidate.name == key) extra = &candidate;
    }
    if (key == coordinate) {
      rule.shard = parse_int(key, value);
    } else if (key == "attempt" && row->scope != Scope::Process) {
      rule.attempt = value == "any" ? -1 : parse_int(key, value);
    } else if (key == row->threshold) {
      rule.after = parse_count(key, value);
    } else if (extra != nullptr) {
      set_extra(rule, *extra, value);
    } else {
      reject("unknown key '" + key + "' for " + name);
    }
  }
  if (row->scope != Scope::Process && rule.shard < 0) {
    reject(name + " needs " + coordinate + "=<id>");
  }
  for (const Key& key : row->keys) {
    if (key.value == Value::Text && rule.file.empty()) {
      reject(name + " needs " + std::string(key.name) + "=<name>");
    }
  }
  return rule;
}

/// The log line of a fired rule: `fault-injection: <kind> at <site
/// noun> <count>`, its coordinates, then what it did.
void log_fired(const KindRow& row, const FaultRule& rule, int count,
               const std::string& what) {
  const std::string where =
      row.scope == Scope::Process
          ? ""
          : util::format(" (%s %d)", coordinate_key(row.scope).c_str(),
                         rule.shard);
  std::fprintf(stderr, "fault-injection: %s at %s %d%s — %s\n",
               row.name.data(), kSiteNouns[static_cast<int>(row.site)],
               count, where.c_str(), what.c_str());
  std::fflush(stderr);
}

}  // namespace

const char* kind_name(FaultKind kind) { return row_of(kind).name.data(); }

std::string grammar(std::string_view indent) {
  std::string out;
  for (const KindRow& row : kKinds) {
    std::string keys;
    auto add = [&keys](std::string_view key, const std::string& value) {
      if (!keys.empty()) keys += ',';
      keys.append(key).append("=").append(value);
    };
    const std::string coordinate = coordinate_key(row.scope);
    if (!coordinate.empty()) add(coordinate, "K");
    if (!row.threshold.empty()) add(row.threshold, "1");
    for (const Key& key : row.keys) {
      if (key.value == Value::Text) add(key.name, "NAME");
      if (key.value == Value::Count) add(key.name, "N");
      if (sets_amount(key)) add(key.name, util::format("%g", key.fallback));
    }
    if (!coordinate.empty()) add("attempt", "0");
    out += std::string(indent) + std::string(row.name) + ":" + keys + "\n";
  }
  return out;
}

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  for (const std::string& clause : util::split_nonempty(text, ';')) {
    spec.rules.push_back(parse_rule(clause));
  }
  if (spec.rules.empty()) reject("no rules in '" + text + "'");
  return spec;
}

void arm(const FaultSpec& spec, int shard_id, int attempt) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_rules.clear();
  for (std::atomic<int>& hits : g_hits) hits.store(0);
  for (const FaultRule& rule : spec.rules) {
    if (row_of(rule.kind).scope == Scope::Process ||
        (rule.shard == shard_id &&
         (rule.attempt < 0 || rule.attempt == attempt))) {
      g_rules.push_back(LiveRule{rule, false});
    }
  }
  g_armed.store(!g_rules.empty());
}

void disarm() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_rules.clear();
  g_armed.store(false);
}

bool armed() { return g_armed.load(); }

Effect hit(Site site, std::string_view artifact, std::string* content) {
  Effect effect;
  if (!g_armed.load()) return effect;
  const int count = g_hits[static_cast<int>(site)].fetch_add(1) + 1;
  double stall_seconds = 0;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    for (LiveRule& live : g_rules) {
      const KindRow& row = row_of(live.rule.kind);
      const FaultRule& rule = live.rule;
      if (row.site != site || live.fired || count < rule.after) continue;
      if (row.action == Action::Tear &&
          (content == nullptr || rule.file != artifact)) {
        continue;
      }
      if (row.action == Action::Throttle) {
        if (rule.window < 0 || count <= rule.window) {
          stall_seconds = rule.amount / 1e3;
        }
        continue;
      }
      live.fired = true;
      effect.fired = true;
      std::string what = "latched";
      switch (row.action) {
        case Action::Exit:
          log_fired(row, rule, count,
                    util::format("_exit(%d)", kCrashExitCode));
          ::_exit(kCrashExitCode);
        case Action::Tear: {
          const std::size_t size = content->size();
          content->resize(static_cast<std::size_t>(
              static_cast<double>(size) * rule.amount));
          what = util::format("%s torn to %zu of %zu bytes",
                              rule.file.c_str(), content->size(), size);
          break;
        }
        case Action::Stall:
          stall_seconds = rule.amount;
          what = util::format("stalling %gs", rule.amount);
          break;
        case Action::Drop:
          effect.drop = true;
          what = "link dropped";
          break;
        case Action::Partition:
          effect.partition_ms = rule.amount;
          what = util::format("link black-holed for %gms", rule.amount);
          break;
        case Action::Latch:
        case Action::Throttle:  // handled above: a throttle never fires
          break;
      }
      log_fired(row, rule, count, what);
      // At most one tear or link fault per hit; the next due rule
      // fires at the next hit.
      if (row.action == Action::Tear || row.action == Action::Drop ||
          row.action == Action::Partition) {
        break;
      }
    }
  }
  if (stall_seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(stall_seconds));
  }
  return effect;
}

int fired_count(FaultKind kind) {
  std::lock_guard<std::mutex> lock(g_mutex);
  int fired = 0;
  for (const LiveRule& live : g_rules) {
    if (live.rule.kind == kind && live.fired) ++fired;
  }
  return fired;
}

}  // namespace provmark::util::fault
