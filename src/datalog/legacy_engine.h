// The seed-era Datalog evaluator, preserved verbatim as the correctness
// baseline for the interned, indexed engine in datalog/engine.h.
//
// Storage is string tuples in std::map<std::string, std::set<Tuple>>,
// bindings are std::map<std::string, std::string>, and every body atom
// unifies against a full relation scan — the layout and join strategy the
// rewrite replaced. datalog_engine_equivalence_test runs both engines
// over identical programs and asserts bit-identical relation contents and
// query results, so any semantic drift in the new engine fails loudly
// instead of silently; datalog_index_speedup_test times the two on a
// 16-process transitive closure.
//
// Shares the AST (Term/Atom/Rule) and the parser with the production
// engine; only the evaluator differs.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "datalog/engine.h"

namespace provmark::datalog::legacy {

/// The pre-rewrite engine: a fact store plus rules, evaluated to fixpoint
/// on demand with semi-naive iteration over full relation scans.
class Engine {
 public:
  void add_fact(const std::string& relation, Tuple tuple);
  void add_rule(Rule rule);
  void load_program(std::string_view text);
  void run();
  std::set<Tuple> relation(const std::string& relation);
  std::vector<std::map<std::string, std::string>> query(const Atom& pattern);
  std::vector<std::map<std::string, std::string>> query(
      std::string_view pattern_text);
  std::size_t fact_count() const;

 private:
  using Bindings = std::map<std::string, std::string>;

  bool unify(const Atom& pattern, const Tuple& tuple, Bindings& bindings)
      const;
  void check_range_restriction(const Rule& rule) const;
  std::vector<std::vector<std::size_t>> stratify() const;
  void run_stratum(const std::vector<std::size_t>& rule_indices);

  std::map<std::string, std::set<Tuple>> facts_;
  std::map<std::string, std::size_t> arity_;
  std::vector<Rule> rules_;
  bool saturated_ = true;
};

}  // namespace provmark::datalog::legacy
