// An interned, indexed Datalog evaluation engine.
//
// The paper stores benchmark graphs "as Datalog" and the regression-testing
// use case (Charlie, §3.1) queries and compares them, so this engine sits
// on the same critical path as the matcher. It applies the matcher's PR 1
// treatment to the query layer:
//
//   * every constant is interned through a graph::SymbolTable, so tuples
//     are flat uint32 symbol rows and bindings are arrays indexed by
//     pre-numbered variable slots — no string compares or map allocations
//     in the join loop;
//   * relations are append-only columnar tuple pools with lazily built
//     hash indexes keyed on bound-position signatures: each body atom
//     resolves via an index probe instead of a full relation scan, under
//     a greedy most-bound-first join order computed per rule per round;
//   * semi-naive evaluation is delta-indexed — because pools are
//     append-only, a round's delta is a contiguous row range served by
//     the same indexes as the full relation — and the rules of a stratum
//     evaluate against an immutable round snapshot, their derivations
//     merged in plan order after the round. Evaluation is
//     single-threaded.
//
// Supported language (unchanged): positive Datalog plus stratified
// negation (`not rel(...)`) and built-in disequality `X != Y`. The
// pre-rewrite evaluator survives as datalog::legacy::Engine;
// datalog_engine_equivalence_test asserts both engines derive
// bit-identical relation contents and query results, and
// datalog_index_speedup_test keeps this engine at least 2x faster than
// it on a 16-process transitive closure.
//
// A run() that follows only add_fact batches reuses the previous
// fixpoint: each stratum's first semi-naive delta holds just the rows
// appended since the last saturation, instead of the whole store.
// This is sound because the store is append-only and the prior run()
// saturated the same rule set over the old rows: every fact a
// from-scratch re-run could derive either is already in a pool or needs
// at least one new row in a positive body atom, and negation only
// shrinks as lower strata grow, so no old-rows-only derivation can newly
// appear. Adding a *rule* always falls back to a full re-derivation (its
// old-rows derivations were never tried).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "graph/compact.h"

namespace provmark::datalog {

/// A term is either a constant string or a variable. Variables start with
/// an upper-case letter or '_' (Prolog convention).
struct Term {
  enum class Kind { Constant, Variable };
  Kind kind;
  std::string text;

  static Term constant(std::string s) {
    return Term{Kind::Constant, std::move(s)};
  }
  static Term variable(std::string s) {
    return Term{Kind::Variable, std::move(s)};
  }
  bool is_variable() const { return kind == Kind::Variable; }
  auto operator<=>(const Term&) const = default;
};

/// An atom: relation(t1, ..., tn).
struct Atom {
  std::string relation;
  std::vector<Term> terms;
  auto operator<=>(const Atom&) const = default;
};

/// A disequality constraint between two terms, written X != Y.
struct Disequality {
  Term lhs;
  Term rhs;
  auto operator<=>(const Disequality&) const = default;
};

/// A negated atom, written `not rel(t1, ..., tn)` — negation as failure
/// under stratification. All variables must be bound by positive atoms.
struct NegatedAtom {
  Atom atom;
  auto operator<=>(const NegatedAtom&) const = default;
};

using BodyLiteral = std::variant<Atom, Disequality, NegatedAtom>;

/// head :- body1, ..., bodyn.   (empty body = ground fact)
struct Rule {
  Atom head;
  std::vector<BodyLiteral> body;
};

using Tuple = std::vector<std::string>;

/// The engine: a fact store plus rules, evaluated to fixpoint on demand.
class Engine {
 public:
  /// Add a ground fact; throws std::invalid_argument on arity conflicts.
  void add_fact(const std::string& relation, Tuple tuple);

  /// Add a rule. The head must not contain variables absent from positive
  /// body atoms (range restriction), and the same applies to negated
  /// atoms and disequalities; throws std::invalid_argument otherwise.
  /// Negation must be stratified: `run()` throws std::logic_error when a
  /// relation transitively depends on its own negation.
  void add_rule(Rule rule);

  /// Parse a program: facts and rules in textual syntax, one clause per
  /// line or separated by '.', e.g.
  ///   edge(a,b). edge(b,c).
  ///   path(X,Y) :- edge(X,Y).
  ///   path(X,Z) :- path(X,Y), edge(Y,Z).
  void load_program(std::string_view text);

  /// Evaluate all rules to fixpoint (semi-naive, stratum by stratum when
  /// negation is present). Idempotent.
  void run();

  /// All tuples currently derived for `relation` (runs evaluation first).
  std::set<Tuple> relation(const std::string& relation);

  /// Sorted names of every relation with at least one tuple at the
  /// current fixpoint (runs evaluation first). Together with
  /// relation(), this is the whole-store enumeration the streaming
  /// service uses to serialize and digest a session's fixpoint.
  std::vector<std::string> relation_names();

  /// Query with a pattern: constants must match, variables bind. Returns
  /// one map per matching tuple, keyed by variable name, in sorted tuple
  /// order.
  std::vector<std::map<std::string, std::string>> query(const Atom& pattern);

  /// Parse and run a query atom, e.g. "path(a,X)".
  std::vector<std::map<std::string, std::string>> query(
      std::string_view pattern_text);

  std::size_t fact_count() const;

 private:
  using Symbol = graph::Symbol;

  /// A hash index over the rows of one relation, keyed on the values of
  /// the columns selected by `mask`. Buckets hold ascending row ids;
  /// lazily extended to cover newly appended rows before each round.
  struct Index {
    std::uint64_t mask = 0;
    std::size_t rows_indexed = 0;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
  };

  /// An append-only columnar tuple pool. Row r of an arity-k relation is
  /// (columns[0][r], ..., columns[k-1][r]); `tuple_index` hashes whole
  /// rows for O(1) dedup on insert.
  struct Relation {
    std::string name;
    bool arity_known = false;  ///< set by facts / head derivations only
    std::size_t arity = 0;
    std::size_t rows = 0;
    std::vector<std::vector<Symbol>> columns;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> tuple_index;
    std::vector<Index> indexes;
    // Semi-naive bookkeeping, valid while a stratum runs: the current
    // delta is the contiguous row range [delta_lo, delta_hi); the round
    // snapshot is [0, full_end).
    std::size_t delta_lo = 0;
    std::size_t delta_hi = 0;
    std::size_t full_end = 0;
    // Rows present when run() last reached a fixpoint. An incremental
    // re-run seeds every stratum's first delta at this watermark: rows
    // below it were saturated together under the current rules, so only
    // [saturated_rows, rows) can fuel new derivations.
    std::size_t saturated_rows = 0;
  };

  /// One argument position of a compiled atom: a constant symbol or a
  /// rule-local variable slot (var < 0 is the anonymous '_').
  struct Slot {
    bool is_var = false;
    Symbol constant = 0;
    int var = -1;
  };

  struct CompiledAtom {
    std::uint32_t rel = 0;
    std::vector<Slot> slots;
  };

  struct CompiledDiseq {
    Slot lhs, rhs;
  };

  /// A rule compiled to relation ids and variable slots. Variables are
  /// numbered per rule in order of first occurrence; bindings during
  /// evaluation are flat Symbol arrays indexed by slot.
  struct CompiledRule {
    CompiledAtom head;
    std::vector<CompiledAtom> atoms;  ///< positive body atoms
    std::vector<CompiledDiseq> diseqs;
    std::vector<CompiledAtom> negs;
    std::size_t var_count = 0;
  };

  /// The join plan for one (rule, pivot) pair in one round: atom order,
  /// per-level probe masks, and the earliest level each filter becomes
  /// fully bound.
  struct JoinPlan {
    std::size_t rule = 0;
    std::size_t pivot = 0;                   ///< atom index ranging over delta
    std::vector<std::size_t> order;          ///< atom indices, pivot first
    std::vector<std::uint64_t> masks;        ///< per level; masks[0] unused
    std::vector<std::vector<std::size_t>> diseqs_at;  ///< per level
    std::vector<std::vector<std::size_t>> negs_at;    ///< per level
  };

  std::uint32_t relation_id(const std::string& name);
  Relation* find_relation(const std::string& name);
  const Relation* find_relation(const std::string& name) const;
  void check_range_restriction(const Rule& rule) const;
  CompiledAtom compile_atom(const Atom& atom,
                            std::map<std::string, int>& slots,
                            std::size_t& var_count);
  /// Dedup-insert one row; enforces arity (std::invalid_argument on
  /// conflict). Returns true when the row is new.
  bool insert_row(Relation& rel, const Symbol* values, std::size_t arity);
  bool row_matches(const Relation& rel, std::uint32_t row,
                   const CompiledAtom& atom,
                   std::vector<Symbol>& binding) const;
  /// Get-or-create the index of `rel` for `mask` and extend it to cover
  /// [rows_indexed, full_end). During a round only the index prepass
  /// calls it, so the plans run on fixed indexes.
  Index& ensure_index(Relation& rel, std::uint64_t mask);
  /// Probe-side key of `atom` under `mask`: the hash of the
  /// mask-selected slot values (constants or bound variables) in
  /// ascending position order — must stay bit-identical to the build
  /// side (masked_row_hash) or probes silently miss rows.
  std::uint64_t probe_key(const CompiledAtom& atom, std::uint64_t mask,
                          const std::vector<Symbol>& binding) const;
  bool negation_holds(const CompiledAtom& neg,
                      const std::vector<Symbol>& binding) const;
  JoinPlan plan_join(std::size_t rule_index, std::size_t pivot) const;
  /// Per-level scratch for eval_level's binding save/restore, reused
  /// across rows so the join loop never allocates.
  using SavedBindings = std::vector<std::vector<std::pair<int, Symbol>>>;
  /// Evaluate one plan against the current round snapshot, appending
  /// derived head rows (flat, head-arity strided) to `out`. Read-only on
  /// the engine: the round's index prepass built every index it probes.
  void eval_plan(const JoinPlan& plan, std::vector<Symbol>& out) const;
  void eval_level(const CompiledRule& rule, const JoinPlan& plan,
                  std::size_t level, std::vector<Symbol>& binding,
                  SavedBindings& scratch, std::vector<Symbol>& out) const;
  std::vector<std::vector<std::size_t>> stratify() const;
  void run_stratum(const std::vector<std::size_t>& rule_indices,
                   bool incremental);

  graph::SymbolTable symbols_;
  std::vector<Relation> relations_;
  std::unordered_map<std::string, std::uint32_t> relation_ids_;
  std::vector<CompiledRule> rules_;
  std::vector<std::string> rule_head_names_;  ///< for stratify errors
  bool saturated_ = true;
  // True until the first run() and whenever a rule was added since the
  // last one: the saturated_rows watermarks only certify fact-only
  // growth, so a dirty rule set forces a from-scratch derivation.
  bool rules_dirty_ = true;
};

/// Parse a single atom such as `path(X, "a b")`.
Atom parse_atom(std::string_view text);

/// Parse a whole program into rules (facts are bodiless rules). Shared by
/// Engine::load_program and legacy::Engine::load_program.
std::vector<Rule> parse_program(std::string_view text);

}  // namespace provmark::datalog
