#include "datalog/engine.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <stdexcept>

#include "datalog/escape.h"
#include "util/strings.h"

namespace provmark::datalog {

namespace {

/// Sentinel for an unbound variable slot. Interned symbols are dense ids
/// starting at 0, so graph::kNoSymbol can never collide with one.
constexpr graph::Symbol kUnbound = graph::kNoSymbol;

/// Hash of `n` symbols (a whole row, or the masked key columns of one).
std::uint64_t row_hash(const graph::Symbol* values, std::size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < n; ++i) h = graph::hash_mix(h, values[i]);
  return h;
}

/// Tokenizer shared by the atom and program parsers.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  void skip_space() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (c == '%') {  // comment to end of line
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  bool at_end() {
    skip_space();
    return pos_ >= text_.size();
  }

  char peek() {
    skip_space();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool try_consume(std::string_view tok) {
    skip_space();
    if (text_.substr(pos_, tok.size()) == tok) {
      pos_ += tok.size();
      return true;
    }
    return false;
  }

  void expect(std::string_view tok) {
    if (!try_consume(tok)) {
      fail("expected '" + std::string(tok) + "'");
    }
  }

  std::string name() {
    skip_space();
    std::size_t start = pos_;
    // Identifier constants may carry recorder id punctuation (cf:task:12,
    // rename-fail) after the first character. ':' is only consumed when
    // not part of the ':-' rule separator; '.' and '/' stay clause
    // punctuation (path-like constants must be quoted).
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      bool head_ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_';
      bool tail_ok = head_ok || c == '-' ||
                     (c == ':' &&
                      !(pos_ + 1 < text_.size() && text_[pos_ + 1] == '-'));
      if (pos_ == start ? !head_ok : !tail_ok) break;
      ++pos_;
    }
    if (pos_ == start) fail("expected a name");
    return std::string(text_.substr(start, pos_ - start));
  }

  std::string quoted() {
    expect("\"");
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        out += decode_escape(text_[pos_++]);
      } else {
        out += c;
      }
    }
  }

  Term term() {
    char c = peek();
    if (c == '"') return Term::constant(quoted());
    std::string n = name();
    if (std::isupper(static_cast<unsigned char>(n[0])) || n[0] == '_') {
      return Term::variable(std::move(n));
    }
    return Term::constant(std::move(n));
  }

  [[noreturn]] void fail(const std::string& message) {
    throw std::invalid_argument("datalog parse error at offset " +
                                std::to_string(pos_) + ": " + message);
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;

  friend Atom parse_atom_with(Lexer& lex);
};

Atom parse_atom_with(Lexer& lex) {
  Atom atom;
  atom.relation = lex.name();
  lex.expect("(");
  if (!lex.try_consume(")")) {
    while (true) {
      atom.terms.push_back(lex.term());
      if (lex.try_consume(")")) break;
      lex.expect(",");
    }
  }
  return atom;
}

}  // namespace

Atom parse_atom(std::string_view text) {
  Lexer lex(text);
  Atom atom = parse_atom_with(lex);
  if (!lex.at_end()) lex.fail("trailing content after atom");
  return atom;
}

std::vector<Rule> parse_program(std::string_view text) {
  std::vector<Rule> rules;
  Lexer lex(text);
  while (!lex.at_end()) {
    Rule rule;
    rule.head = parse_atom_with(lex);
    if (lex.try_consume(":-")) {
      while (true) {
        // A body literal is either `X != Y` or an atom. An atom always
        // has '(' after its relation name, so no backtracking is needed.
        lex.skip_space();
        if (lex.peek() == '"') {
          Term lhs = lex.term();
          lex.expect("!=");
          Term rhs = lex.term();
          rule.body.emplace_back(Disequality{std::move(lhs), std::move(rhs)});
        } else {
          std::string n = lex.name();
          if (n == "not") {
            // Negation as failure: `not rel(args)`.
            NegatedAtom negated;
            negated.atom = parse_atom_with(lex);
            rule.body.emplace_back(std::move(negated));
          } else if (lex.try_consume("(")) {
            Atom atom;
            atom.relation = std::move(n);
            if (!lex.try_consume(")")) {
              while (true) {
                atom.terms.push_back(lex.term());
                if (lex.try_consume(")")) break;
                lex.expect(",");
              }
            }
            rule.body.emplace_back(std::move(atom));
          } else {
            Term lhs =
                (std::isupper(static_cast<unsigned char>(n[0])) || n[0] == '_')
                    ? Term::variable(n)
                    : Term::constant(n);
            lex.expect("!=");
            Term rhs = lex.term();
            rule.body.emplace_back(
                Disequality{std::move(lhs), std::move(rhs)});
          }
        }
        if (!lex.try_consume(",")) break;
      }
    }
    lex.expect(".");
    rules.push_back(std::move(rule));
  }
  return rules;
}

// -- relation registry --------------------------------------------------------

std::uint32_t Engine::relation_id(const std::string& name) {
  auto it = relation_ids_.find(name);
  if (it != relation_ids_.end()) return it->second;
  std::uint32_t id = static_cast<std::uint32_t>(relations_.size());
  relations_.emplace_back();
  relations_.back().name = name;
  relation_ids_.emplace(name, id);
  return id;
}

Engine::Relation* Engine::find_relation(const std::string& name) {
  auto it = relation_ids_.find(name);
  return it == relation_ids_.end() ? nullptr : &relations_[it->second];
}

const Engine::Relation* Engine::find_relation(const std::string& name) const {
  auto it = relation_ids_.find(name);
  return it == relation_ids_.end() ? nullptr : &relations_[it->second];
}

bool Engine::insert_row(Relation& rel, const Symbol* values,
                        std::size_t arity) {
  if (!rel.arity_known) {
    rel.arity_known = true;
    rel.arity = arity;
    rel.columns.assign(arity, {});
  } else if (rel.arity != arity) {
    throw std::invalid_argument("arity mismatch for relation " + rel.name);
  }
  auto& bucket = rel.tuple_index[row_hash(values, arity)];
  for (std::uint32_t row : bucket) {
    bool equal = true;
    for (std::size_t p = 0; p < arity; ++p) {
      if (rel.columns[p][row] != values[p]) {
        equal = false;
        break;
      }
    }
    if (equal) return false;
  }
  for (std::size_t p = 0; p < arity; ++p) {
    rel.columns[p].push_back(values[p]);
  }
  bucket.push_back(static_cast<std::uint32_t>(rel.rows));
  ++rel.rows;
  return true;
}

void Engine::add_fact(const std::string& relation, Tuple tuple) {
  Relation& rel = relations_[relation_id(relation)];
  std::vector<Symbol> row;
  row.reserve(tuple.size());
  for (const std::string& value : tuple) row.push_back(symbols_.intern(value));
  if (insert_row(rel, row.data(), row.size())) {
    saturated_ = false;
  }
}

// -- rule compilation ---------------------------------------------------------

void Engine::check_range_restriction(const Rule& rule) const {
  std::set<std::string> bound;
  for (const BodyLiteral& lit : rule.body) {
    if (const Atom* atom = std::get_if<Atom>(&lit)) {
      for (const Term& t : atom->terms) {
        if (t.is_variable()) bound.insert(t.text);
      }
    }
  }
  for (const Term& t : rule.head.terms) {
    if (t.is_variable() && bound.count(t.text) == 0) {
      throw std::invalid_argument(
          "rule head variable " + t.text +
          " does not occur in any positive body atom");
    }
  }
  for (const BodyLiteral& lit : rule.body) {
    if (const Disequality* diseq = std::get_if<Disequality>(&lit)) {
      for (const Term* t : {&diseq->lhs, &diseq->rhs}) {
        if (t->is_variable() && bound.count(t->text) == 0) {
          throw std::invalid_argument(
              "disequality variable " + t->text + " is unbound");
        }
      }
    }
    if (const NegatedAtom* negated = std::get_if<NegatedAtom>(&lit)) {
      for (const Term& t : negated->atom.terms) {
        if (t.is_variable() && t.text != "_" &&
            bound.count(t.text) == 0) {
          throw std::invalid_argument(
              "negated-atom variable " + t.text + " is unbound");
        }
      }
    }
  }
}

Engine::CompiledAtom Engine::compile_atom(const Atom& atom,
                                          std::map<std::string, int>& slots,
                                          std::size_t& var_count) {
  CompiledAtom out;
  out.rel = relation_id(atom.relation);
  out.slots.reserve(atom.terms.size());
  for (const Term& t : atom.terms) {
    Slot slot;
    if (t.is_variable()) {
      slot.is_var = true;
      if (t.text == "_") {
        slot.var = -1;  // anonymous: never binds, never checks
      } else {
        auto [it, inserted] =
            slots.try_emplace(t.text, static_cast<int>(var_count));
        if (inserted) ++var_count;
        slot.var = it->second;
      }
    } else {
      slot.constant = symbols_.intern(t.text);
    }
    out.slots.push_back(slot);
  }
  return out;
}

void Engine::add_rule(Rule rule) {
  check_range_restriction(rule);
  if (rule.body.empty()) {
    // A bodiless rule is a fact; require it to be ground.
    Tuple tuple;
    for (const Term& t : rule.head.terms) {
      if (t.is_variable()) {
        throw std::invalid_argument("fact with variable argument");
      }
      tuple.push_back(t.text);
    }
    add_fact(rule.head.relation, std::move(tuple));
    return;
  }
  CompiledRule compiled;
  std::map<std::string, int> slots;
  std::size_t var_count = 0;
  // Positive atoms first: they own the variable slots every other part
  // of the rule (checked by the range restriction) resolves against.
  for (const BodyLiteral& lit : rule.body) {
    if (const Atom* atom = std::get_if<Atom>(&lit)) {
      compiled.atoms.push_back(compile_atom(*atom, slots, var_count));
    }
  }
  auto compile_term = [&](const Term& t) {
    Slot slot;
    if (t.is_variable()) {
      slot.is_var = true;
      slot.var = slots.at(t.text);  // guaranteed by range restriction
    } else {
      slot.constant = symbols_.intern(t.text);
    }
    return slot;
  };
  for (const BodyLiteral& lit : rule.body) {
    if (const Disequality* diseq = std::get_if<Disequality>(&lit)) {
      compiled.diseqs.push_back(
          CompiledDiseq{compile_term(diseq->lhs), compile_term(diseq->rhs)});
    } else if (const NegatedAtom* negated = std::get_if<NegatedAtom>(&lit)) {
      compiled.negs.push_back(compile_atom(negated->atom, slots, var_count));
    }
  }
  compiled.head = compile_atom(rule.head, slots, var_count);
  compiled.var_count = var_count;
  rules_.push_back(std::move(compiled));
  rule_head_names_.push_back(rule.head.relation);
  saturated_ = false;
  rules_dirty_ = true;
}

void Engine::load_program(std::string_view text) {
  for (Rule& rule : parse_program(text)) {
    add_rule(std::move(rule));
  }
}

// -- stratification -----------------------------------------------------------

std::vector<std::vector<std::size_t>> Engine::stratify() const {
  // stratum[relation]: 0 for EDB; a head is at least the stratum of each
  // positive body relation, and strictly above each negated one.
  std::vector<std::size_t> stratum(relations_.size(), 0);
  const std::size_t limit = rules_.size() + 2;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      const CompiledRule& rule = rules_[i];
      std::size_t need = 0;
      for (const CompiledAtom& atom : rule.atoms) {
        need = std::max(need, stratum[atom.rel]);
      }
      for (const CompiledAtom& negated : rule.negs) {
        need = std::max(need, stratum[negated.rel] + 1);
      }
      if (need > stratum[rule.head.rel]) {
        if (need >= limit) {
          throw std::logic_error(
              "negation is not stratified (relation " + rule_head_names_[i] +
              " depends on its own negation)");
        }
        stratum[rule.head.rel] = need;
        changed = true;
      }
    }
  }
  std::size_t max_stratum = 0;
  for (std::size_t s : stratum) max_stratum = std::max(max_stratum, s);
  std::vector<std::vector<std::size_t>> strata(max_stratum + 1);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    strata[stratum[rules_[i].head.rel]].push_back(i);
  }
  return strata;
}

// -- indexes ------------------------------------------------------------------

namespace {

/// Key of `row` under `mask`: hash of the masked column values in
/// ascending position order (identical on the build and probe side).
std::uint64_t masked_row_hash(
    const std::vector<std::vector<graph::Symbol>>& columns,
    std::uint64_t mask, std::uint32_t row) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t p = 0; p < columns.size() && p < 64; ++p) {
    if (mask & (1ull << p)) h = graph::hash_mix(h, columns[p][row]);
  }
  return h;
}

}  // namespace

Engine::Index& Engine::ensure_index(Relation& rel, std::uint64_t mask) {
  Index* index = nullptr;
  for (Index& candidate : rel.indexes) {
    if (candidate.mask == mask) {
      index = &candidate;
      break;
    }
  }
  if (index == nullptr) {
    rel.indexes.emplace_back();
    index = &rel.indexes.back();
    index->mask = mask;
  }
  // Append-only pools: extending the index is a scan of the new rows.
  // Buckets accumulate rows in ascending order, which keeps probe
  // iteration (and therefore derivation order) deterministic.
  for (std::size_t row = index->rows_indexed; row < rel.full_end; ++row) {
    index->buckets[masked_row_hash(rel.columns, mask,
                                   static_cast<std::uint32_t>(row))]
        .push_back(static_cast<std::uint32_t>(row));
  }
  index->rows_indexed = std::max(index->rows_indexed, rel.full_end);
  return *index;
}

// -- join planning ------------------------------------------------------------

Engine::JoinPlan Engine::plan_join(std::size_t rule_index,
                                   std::size_t pivot) const {
  const CompiledRule& rule = rules_[rule_index];
  const std::size_t n = rule.atoms.size();
  JoinPlan plan;
  plan.rule = rule_index;
  plan.pivot = pivot;
  plan.order.reserve(n);
  plan.masks.assign(n, 0);

  std::vector<bool> bound(rule.var_count, false);
  std::vector<bool> placed(n, false);
  auto bind_atom = [&](const CompiledAtom& atom) {
    for (const Slot& slot : atom.slots) {
      if (slot.is_var && slot.var >= 0) bound[slot.var] = true;
    }
  };
  auto mask_of = [&](const CompiledAtom& atom) {
    std::uint64_t mask = 0;
    for (std::size_t p = 0; p < atom.slots.size() && p < 64; ++p) {
      const Slot& slot = atom.slots[p];
      if (!slot.is_var || (slot.var >= 0 && bound[slot.var])) {
        mask |= 1ull << p;
      }
    }
    return mask;
  };

  // The delta atom leads (it is the small side by construction); the
  // rest follow greedily most-bound-first, smallest relation on ties, so
  // every level resolves through the tightest available index.
  plan.order.push_back(pivot);
  placed[pivot] = true;
  bind_atom(rule.atoms[pivot]);
  for (std::size_t level = 1; level < n; ++level) {
    std::size_t chosen = n;
    int chosen_bound = -1;
    std::size_t chosen_rows = 0;
    for (std::size_t a = 0; a < n; ++a) {
      if (placed[a]) continue;
      int bound_positions = std::popcount(mask_of(rule.atoms[a]));
      std::size_t rows = relations_[rule.atoms[a].rel].full_end;
      if (chosen == n || bound_positions > chosen_bound ||
          (bound_positions == chosen_bound && rows < chosen_rows)) {
        chosen = a;
        chosen_bound = bound_positions;
        chosen_rows = rows;
      }
    }
    plan.masks[level] = mask_of(rule.atoms[chosen]);
    plan.order.push_back(chosen);
    placed[chosen] = true;
    bind_atom(rule.atoms[chosen]);
  }

  // Schedule each filter at the earliest level where it is fully bound.
  plan.diseqs_at.assign(n, {});
  plan.negs_at.assign(n, {});
  std::vector<bool> bound_now(rule.var_count, false);
  std::vector<bool> diseq_done(rule.diseqs.size(), false);
  std::vector<bool> neg_done(rule.negs.size(), false);
  auto slot_ready = [&](const Slot& slot) {
    return !slot.is_var || slot.var < 0 || bound_now[slot.var];
  };
  for (std::size_t level = 0; level < n; ++level) {
    for (const Slot& slot : rule.atoms[plan.order[level]].slots) {
      if (slot.is_var && slot.var >= 0) bound_now[slot.var] = true;
    }
    for (std::size_t d = 0; d < rule.diseqs.size(); ++d) {
      if (diseq_done[d]) continue;
      if (slot_ready(rule.diseqs[d].lhs) && slot_ready(rule.diseqs[d].rhs)) {
        plan.diseqs_at[level].push_back(d);
        diseq_done[d] = true;
      }
    }
    for (std::size_t g = 0; g < rule.negs.size(); ++g) {
      if (neg_done[g]) continue;
      bool ready = true;
      for (const Slot& slot : rule.negs[g].slots) {
        ready = ready && slot_ready(slot);
      }
      if (ready) {
        plan.negs_at[level].push_back(g);
        neg_done[g] = true;
      }
    }
  }
  return plan;
}

// -- evaluation ---------------------------------------------------------------

bool Engine::row_matches(const Relation& rel, std::uint32_t row,
                         const CompiledAtom& atom,
                         std::vector<Symbol>& binding) const {
  for (std::size_t p = 0; p < atom.slots.size(); ++p) {
    Symbol value = rel.columns[p][row];
    const Slot& slot = atom.slots[p];
    if (!slot.is_var) {
      if (slot.constant != value) return false;
    } else if (slot.var >= 0) {
      Symbol& bound = binding[slot.var];
      if (bound == kUnbound) {
        bound = value;
      } else if (bound != value) {
        return false;
      }
    }
  }
  return true;
}

std::uint64_t Engine::probe_key(const CompiledAtom& atom, std::uint64_t mask,
                                const std::vector<Symbol>& binding) const {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t p = 0; p < atom.slots.size() && p < 64; ++p) {
    if (mask & (1ull << p)) {
      const Slot& slot = atom.slots[p];
      h = graph::hash_mix(h, slot.is_var ? binding[slot.var] : slot.constant);
    }
  }
  return h;
}

bool Engine::negation_holds(const CompiledAtom& neg,
                            const std::vector<Symbol>& binding) const {
  const Relation& rel = relations_[neg.rel];
  // Negated relations live in strictly lower strata, so their pools are
  // final: rows == full_end. A missing or arity-incompatible relation
  // can never match.
  if (rel.rows == 0 || rel.arity != neg.slots.size()) return false;
  std::uint64_t mask = 0;
  for (std::size_t p = 0; p < neg.slots.size() && p < 64; ++p) {
    const Slot& slot = neg.slots[p];
    if (!slot.is_var || slot.var >= 0) mask |= 1ull << p;
  }
  auto matches = [&](std::uint32_t row) {
    for (std::size_t p = 0; p < neg.slots.size(); ++p) {
      const Slot& slot = neg.slots[p];
      if (slot.is_var && slot.var < 0) continue;  // anonymous: free
      Symbol want = slot.is_var ? binding[slot.var] : slot.constant;
      if (rel.columns[p][row] != want) return false;
    }
    return true;
  };
  if (mask != 0) {
    const Index* index = nullptr;
    for (const Index& candidate : rel.indexes) {
      if (candidate.mask == mask && candidate.rows_indexed >= rel.rows) {
        index = &candidate;
        break;
      }
    }
    if (index != nullptr) {
      auto it = index->buckets.find(probe_key(neg, mask, binding));
      if (it == index->buckets.end()) return false;
      for (std::uint32_t row : it->second) {
        if (matches(row)) return true;
      }
      return false;
    }
  }
  for (std::uint32_t row = 0; row < rel.rows; ++row) {
    if (matches(row)) return true;
  }
  return false;
}

void Engine::eval_level(const CompiledRule& rule, const JoinPlan& plan,
                        std::size_t level, std::vector<Symbol>& binding,
                        SavedBindings& scratch, std::vector<Symbol>& out)
    const {
  if (level == plan.order.size()) {
    // Emit the head tuple, unless the round snapshot already has it (the
    // common case once a fixpoint nears: most derivations rediscover
    // known facts, and filtering them here keeps buffers small). A
    // nullary head has no columns; it occupies one sentinel slot in the
    // flat buffer so the merge can count it.
    const CompiledAtom& head = rule.head;
    const std::size_t arity = head.slots.size();
    const std::size_t base = out.size();
    for (const Slot& slot : head.slots) {
      out.push_back(slot.is_var ? binding[slot.var] : slot.constant);
    }
    const Relation& rel = relations_[head.rel];
    if (rel.arity_known && rel.arity == arity && rel.rows > 0) {
      auto it = rel.tuple_index.find(row_hash(out.data() + base, arity));
      if (it != rel.tuple_index.end()) {
        for (std::uint32_t row : it->second) {
          bool equal = true;
          for (std::size_t p = 0; p < arity; ++p) {
            if (rel.columns[p][row] != out[base + p]) {
              equal = false;
              break;
            }
          }
          if (equal) {
            out.resize(base);
            return;
          }
        }
      }
    }
    if (arity == 0) out.push_back(kUnbound);
    return;
  }

  const CompiledAtom& atom = rule.atoms[plan.order[level]];
  const Relation& rel = relations_[atom.rel];
  // The atom's variable slots are the only binding entries this level
  // can touch; snapshot them once (into the per-level scratch slot, so
  // the join loop never allocates) and restore after every row.
  std::vector<std::pair<int, Symbol>>& saved = scratch[level];
  saved.clear();
  for (const Slot& slot : atom.slots) {
    if (slot.is_var && slot.var >= 0) {
      saved.emplace_back(slot.var, binding[slot.var]);
    }
  }
  auto process_row = [&](std::uint32_t row) {
    if (row_matches(rel, row, atom, binding)) {
      bool ok = true;
      for (std::size_t d : plan.diseqs_at[level]) {
        const CompiledDiseq& diseq = rule.diseqs[d];
        Symbol lhs = diseq.lhs.is_var ? binding[diseq.lhs.var]
                                      : diseq.lhs.constant;
        Symbol rhs = diseq.rhs.is_var ? binding[diseq.rhs.var]
                                      : diseq.rhs.constant;
        if (lhs == rhs) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (std::size_t g : plan.negs_at[level]) {
          if (negation_holds(rule.negs[g], binding)) {
            ok = false;
            break;
          }
        }
      }
      if (ok) eval_level(rule, plan, level + 1, binding, scratch, out);
    }
    for (const auto& [var, value] : saved) binding[var] = value;
  };

  if (level == 0) {
    // The pivot ranges over the delta row range of its relation.
    for (std::size_t row = rel.delta_lo; row < rel.delta_hi; ++row) {
      process_row(static_cast<std::uint32_t>(row));
    }
    return;
  }
  const std::uint64_t mask = plan.masks[level];
  if (mask != 0) {
    const Index* index = nullptr;
    for (const Index& candidate : rel.indexes) {
      if (candidate.mask == mask) {
        index = &candidate;
        break;
      }
    }
    if (index != nullptr && index->rows_indexed >= rel.full_end) {
      auto it = index->buckets.find(probe_key(atom, mask, binding));
      if (it != index->buckets.end()) {
        for (std::uint32_t row : it->second) {
          process_row(row);
        }
      }
      return;
    }
  }
  for (std::size_t row = 0; row < rel.full_end; ++row) {
    process_row(static_cast<std::uint32_t>(row));
  }
}

void Engine::eval_plan(const JoinPlan& plan, std::vector<Symbol>& out) const {
  const CompiledRule& rule = rules_[plan.rule];
  std::vector<Symbol> binding(rule.var_count, kUnbound);
  SavedBindings scratch(plan.order.size());
  eval_level(rule, plan, 0, binding, scratch, out);
}

void Engine::run_stratum(const std::vector<std::size_t>& rule_indices,
                         bool incremental) {
  // Delta-indexed semi-naive evaluation. Pools are append-only, so each
  // round's delta is the contiguous row range appended by the previous
  // round and the same hash indexes serve full and delta access.
  //
  // An incremental re-run starts each relation's delta at its
  // saturation watermark instead of row 0: old-rows-only joins were
  // exhausted by the previous fixpoint, so only rows appended since —
  // new EDB facts, plus anything lower strata derived earlier in this
  // same run() — can pivot a new derivation. With no appended rows
  // anywhere the stratum settles in a single plan-free round.
  for (Relation& rel : relations_) {
    rel.delta_lo = incremental ? rel.saturated_rows : 0;
    rel.delta_hi = rel.rows;
  }
  while (true) {
    for (Relation& rel : relations_) rel.full_end = rel.rows;

    // Plan one join per (rule, pivot) whose pivot delta is non-empty and
    // whose body is satisfiable this round.
    std::vector<JoinPlan> plans;
    for (std::size_t rule_index : rule_indices) {
      const CompiledRule& rule = rules_[rule_index];
      bool satisfiable = !rule.atoms.empty();
      for (const CompiledAtom& atom : rule.atoms) {
        const Relation& rel = relations_[atom.rel];
        if (rel.full_end == 0 ||
            (rel.arity_known && rel.arity != atom.slots.size())) {
          satisfiable = false;
          break;
        }
      }
      if (!satisfiable) continue;
      for (std::size_t pivot = 0; pivot < rule.atoms.size(); ++pivot) {
        const Relation& rel = relations_[rule.atoms[pivot].rel];
        if (rel.delta_lo == rel.delta_hi) continue;
        plans.push_back(plan_join(rule_index, pivot));
      }
    }

    // Index prepass: every probe the round's plans will make — join
    // levels and negation filters — gets its index built or extended
    // here, so evaluating the plans only reads the engine.
    for (const JoinPlan& plan : plans) {
      const CompiledRule& rule = rules_[plan.rule];
      for (std::size_t level = 1; level < plan.order.size(); ++level) {
        if (plan.masks[level] != 0) {
          ensure_index(relations_[rule.atoms[plan.order[level]].rel],
                       plan.masks[level]);
        }
      }
      for (const CompiledAtom& neg : rule.negs) {
        const Relation& rel = relations_[neg.rel];
        if (rel.rows == 0 || rel.arity != neg.slots.size()) continue;
        std::uint64_t mask = 0;
        for (std::size_t p = 0; p < neg.slots.size() && p < 64; ++p) {
          if (!neg.slots[p].is_var || neg.slots[p].var >= 0) {
            mask |= 1ull << p;
          }
        }
        if (mask != 0) ensure_index(relations_[neg.rel], mask);
      }
    }

    // Evaluate every plan against the immutable round snapshot. Each
    // plan's derivations land in its own buffer, so no plan sees another
    // plan's rows before the next round.
    std::vector<std::vector<Symbol>> outs(plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
      eval_plan(plans[i], outs[i]);
    }

    // Deterministic merge in plan order; insert_row dedups.
    bool grew = false;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const CompiledAtom& head = rules_[plans[i].rule].head;
      Relation& rel = relations_[head.rel];
      const std::size_t arity = head.slots.size();
      // Nullary heads use one sentinel slot per derivation (see
      // eval_level's emit branch).
      const std::size_t stride = arity == 0 ? 1 : arity;
      for (std::size_t base = 0; base + stride <= outs[i].size();
           base += stride) {
        grew |= insert_row(rel, outs[i].data() + base, arity);
      }
    }
    for (Relation& rel : relations_) {
      rel.delta_lo = rel.full_end;
      rel.delta_hi = rel.rows;
    }
    if (!grew) break;
  }
}

void Engine::run() {
  if (saturated_) return;
  // Incremental delta reuse applies when only facts arrived since the
  // last fixpoint; a changed rule set re-derives from scratch (the new
  // rules never saw the old rows).
  const bool incremental = !rules_dirty_;
  // Evaluate stratum by stratum: every relation a negated atom refers to
  // is fully computed before the stratum that negates it runs.
  for (const std::vector<std::size_t>& stratum : stratify()) {
    run_stratum(stratum, incremental);
  }
  for (Relation& rel : relations_) {
    rel.saturated_rows = rel.rows;
  }
  rules_dirty_ = false;
  saturated_ = true;
}

// -- results ------------------------------------------------------------------

std::set<Tuple> Engine::relation(const std::string& relation) {
  run();
  std::set<Tuple> out;
  const Relation* rel = find_relation(relation);
  if (rel == nullptr) return out;
  for (std::size_t row = 0; row < rel->rows; ++row) {
    Tuple tuple;
    tuple.reserve(rel->arity);
    for (std::size_t p = 0; p < rel->arity; ++p) {
      tuple.push_back(symbols_.resolve(rel->columns[p][row]));
    }
    out.insert(std::move(tuple));
  }
  return out;
}

std::vector<std::string> Engine::relation_names() {
  run();
  std::vector<std::string> names;
  for (const Relation& rel : relations_) {
    if (rel.rows > 0) names.push_back(rel.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::map<std::string, std::string>> Engine::query(
    const Atom& pattern) {
  run();
  std::vector<std::map<std::string, std::string>> out;
  Relation* rel = find_relation(pattern.relation);
  if (rel == nullptr || rel->rows == 0 ||
      rel->arity != pattern.terms.size()) {
    return out;
  }
  // Compile the pattern with lookup-only interning: a constant the
  // engine never saw cannot match any row.
  CompiledAtom atom;
  std::map<std::string, int> slots;
  std::size_t var_count = 0;
  for (const Term& t : pattern.terms) {
    Slot slot;
    if (t.is_variable()) {
      slot.is_var = true;
      if (t.text != "_") {
        auto [it, inserted] =
            slots.try_emplace(t.text, static_cast<int>(var_count));
        if (inserted) ++var_count;
        slot.var = it->second;
      }
    } else {
      slot.constant = symbols_.lookup(t.text);
      if (slot.constant == graph::kNoSymbol) return out;
    }
    atom.slots.push_back(slot);
  }

  // Resolve through the constant-position index when one applies.
  std::uint64_t mask = 0;
  for (std::size_t p = 0; p < atom.slots.size() && p < 64; ++p) {
    if (!atom.slots[p].is_var) mask |= 1ull << p;
  }
  std::vector<std::uint32_t> rows;
  if (mask != 0) {
    rel->full_end = rel->rows;
    Index& index = ensure_index(*rel, mask);
    // The mask covers constant positions only, so no binding is needed.
    auto it = index.buckets.find(probe_key(atom, mask, {}));
    if (it != index.buckets.end()) rows = it->second;
  } else {
    rows.resize(rel->rows);
    for (std::size_t row = 0; row < rel->rows; ++row) {
      rows[row] = static_cast<std::uint32_t>(row);
    }
  }

  // Collect matches, then emit bindings in sorted tuple order (the order
  // the legacy engine's std::set storage produced).
  std::vector<Symbol> binding(var_count, kUnbound);
  std::vector<std::pair<Tuple, std::map<std::string, std::string>>> matches;
  for (std::uint32_t row : rows) {
    std::fill(binding.begin(), binding.end(), kUnbound);
    if (!row_matches(*rel, row, atom, binding)) continue;
    Tuple tuple;
    tuple.reserve(rel->arity);
    for (std::size_t p = 0; p < rel->arity; ++p) {
      tuple.push_back(symbols_.resolve(rel->columns[p][row]));
    }
    std::map<std::string, std::string> bindings;
    for (const auto& [name, slot] : slots) {
      bindings.emplace(name, symbols_.resolve(binding[slot]));
    }
    matches.emplace_back(std::move(tuple), std::move(bindings));
  }
  std::sort(matches.begin(), matches.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.reserve(matches.size());
  for (auto& match : matches) out.push_back(std::move(match.second));
  return out;
}

std::vector<std::map<std::string, std::string>> Engine::query(
    std::string_view pattern_text) {
  return query(parse_atom(pattern_text));
}

std::size_t Engine::fact_count() const {
  std::size_t n = 0;
  for (const Relation& rel : relations_) n += rel.rows;
  return n;
}

}  // namespace provmark::datalog
