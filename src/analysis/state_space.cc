#include "analysis/state_space.h"

#include "common/logging.h"
#include "temporal/reduction.h"

namespace cdes::analysis {
namespace {

inline size_t MixHash(size_t h, size_t v) {
  // splitmix-style combine; pointer/id inputs are already well distributed.
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

size_t CheckStateHash::operator()(const CheckState& s) const {
  size_t h = MixHash(std::hash<uint64_t>()(s.decided),
                     std::hash<uint64_t>()(s.positive));
  for (const Guard* g : s.guards) {
    h = MixHash(h, g == nullptr ? 0xdeadu : static_cast<size_t>(g->id()));
  }
  h = MixHash(h, static_cast<size_t>(s.commitment->id()));
  for (const Expr* e : s.residuals) {
    h = MixHash(h, std::hash<const void*>()(e));
  }
  return h;
}

StateSpace::StateSpace(WorkflowContext* ctx, const CompiledWorkflow& compiled)
    : ctx_(ctx), compiled_(compiled), cache_(ctx->reduction_cache()) {
  symbols_.assign(compiled.symbols().begin(), compiled.symbols().end());
  CDES_CHECK_LE(symbols_.size(), 64u);
  for (size_t i = 0; i < symbols_.size(); ++i) symbol_index_[symbols_[i]] = i;
  all_mask_ = symbols_.size() == 64 ? ~0ull : (1ull << symbols_.size()) - 1;
  deps_.reserve(compiled.dependencies().size());
  for (const Dependency& dep : compiled.dependencies()) {
    // Normalizing up front makes the first residuation by an *unrelated*
    // literal the pointer identity (rule 6 applies to the normal form), so
    // independent transitions commute to bitwise-equal states — the
    // invariant the ample-set reduction relies on.
    deps_.push_back(ctx_->residuator()->NormalForm(dep.expr));
  }
}

size_t StateSpace::SymbolIndex(SymbolId symbol) const {
  auto it = symbol_index_.find(symbol);
  CDES_CHECK(it != symbol_index_.end());
  return it->second;
}

CheckState StateSpace::Initial() const {
  CheckState s;
  s.guards.resize(2 * symbols_.size());
  for (size_t i = 0; i < symbols_.size(); ++i) {
    s.guards[2 * i] = compiled_.GuardFor(LiteralAt(i, false));
    s.guards[2 * i + 1] = compiled_.GuardFor(LiteralAt(i, true));
  }
  s.commitment = ctx_->guards()->True();
  s.residuals = deps_;
  return s;
}

bool StateSpace::SpecAlive(const CheckState& s) const {
  for (const Expr* r : s.residuals) {
    if (r->IsZero()) return false;
  }
  return true;
}

bool StateSpace::SpecSatisfied(const CheckState& s) const {
  for (const Expr* r : s.residuals) {
    if (!r->IsTop()) return false;
  }
  return true;
}

const Guard* StateSpace::Commitment(const CheckState& s,
                                    EventLiteral lit) const {
  if (!GuardAlive(s)) return ctx_->guards()->False();
  size_t i = SymbolIndex(lit.symbol());
  CDES_DCHECK(!(s.decided >> i & 1));
  return Commit(s.guards[2 * i + lit.complemented()]);
}

bool StateSpace::EnabledNow(const CheckState& s, EventLiteral lit) const {
  if (!GuardAlive(s)) return false;
  size_t i = SymbolIndex(lit.symbol());
  CDES_DCHECK(!(s.decided >> i & 1));
  return s.guards[2 * i + lit.complemented()]->PermitsNow();
}

CheckState StateSpace::Successor(const CheckState& s, EventLiteral lit) const {
  GuardArena* arena = ctx_->guards();
  Residuator* residuator = ctx_->residuator();
  size_t i = SymbolIndex(lit.symbol());
  CDES_DCHECK(!(s.decided >> i & 1));
  Announcement occurred{AnnouncementKind::kOccurred, lit};

  CheckState child;
  child.decided = s.decided | (1ull << i);
  child.positive = s.positive | (lit.complemented() ? 0 : 1ull << i);
  child.guards.resize(s.guards.size(), nullptr);
  if (GuardAlive(s)) {
    // Freeze the fired literal's permission and fold it into the path
    // commitment; the fired literal itself counts toward its own ◇-part
    // (◇ is evaluated against the full maximal trace).
    const Guard* frozen = Commit(s.guards[2 * i + lit.complemented()]);
    child.commitment = ReduceGuard(arena, residuator,
                                   arena->And(s.commitment, frozen), occurred,
                                   cache_);
    if (!child.commitment->IsFalse()) {
      for (size_t j = 0; j < symbols_.size(); ++j) {
        if (j == i || (child.decided >> j & 1)) continue;
        child.guards[2 * j] =
            ReduceGuard(arena, residuator, s.guards[2 * j], occurred, cache_);
        child.guards[2 * j + 1] = ReduceGuard(arena, residuator,
                                              s.guards[2 * j + 1], occurred,
                                              cache_);
      }
    }
    // On commitment collapse the guards are dropped: the subtree is
    // explored for the spec side only, and keeping dead guard history
    // would split states that are observably equal.
  } else {
    child.commitment = arena->False();
  }
  child.residuals.reserve(s.residuals.size());
  for (const Expr* r : s.residuals) {
    child.residuals.push_back(residuator->Residuate(r, lit));
  }
  return child;
}

const Guard* StateSpace::Commit(const Guard* g) const {
  auto it = commit_.find(g);
  if (it == commit_.end()) {
    it = commit_.emplace(g, CommitNow(ctx_->guards(), g)).first;
  }
  return it->second;
}

const std::set<SymbolId>& StateSpace::GuardSyms(const Guard* g) const {
  auto it = guard_syms_.find(g);
  if (it == guard_syms_.end()) {
    it = guard_syms_.emplace(g, GuardSymbols(g)).first;
  }
  return it->second;
}

const std::set<SymbolId>& StateSpace::ExprSyms(const Expr* e) const {
  auto it = expr_syms_.find(e);
  if (it == expr_syms_.end()) {
    it = expr_syms_.emplace(e, MentionedSymbols(e)).first;
  }
  return it->second;
}

std::vector<uint32_t> StateSpace::EntangledClasses(const CheckState& s) const {
  size_t n = symbols_.size();
  std::vector<uint32_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = static_cast<uint32_t>(i);
  auto find = [&](uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  auto unite = [&](uint32_t a, uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);
    parent[b] = a;
  };
  auto undecided = [&](SymbolId symbol) -> int {
    auto it = symbol_index_.find(symbol);
    if (it == symbol_index_.end()) return -1;
    return (s.decided >> it->second & 1) ? -1 : static_cast<int>(it->second);
  };
  // One item = one set of symbols that must stay in one class.
  auto unite_item = [&](const std::set<SymbolId>& syms, int owner) {
    int first = owner;
    for (SymbolId symbol : syms) {
      int idx = undecided(symbol);
      if (idx < 0) continue;
      if (first < 0) {
        first = idx;
      } else {
        unite(static_cast<uint32_t>(first), static_cast<uint32_t>(idx));
      }
    }
  };
  for (size_t i = 0; i < n; ++i) {
    if (s.decided >> i & 1) continue;
    for (size_t slot : {2 * i, 2 * i + 1}) {
      if (s.guards[slot] != nullptr) {
        unite_item(GuardSyms(s.guards[slot]), static_cast<int>(i));
      }
    }
  }
  if (s.commitment->kind() == GuardKind::kAnd) {
    // Obligations conjoin independently; entangling per top-level conjunct
    // (not per whole commitment) is what keeps unrelated event clusters in
    // separate classes.
    for (const Guard* c : s.commitment->children()) {
      unite_item(GuardSyms(c), -1);
    }
  } else if (!s.commitment->IsTrue() && !s.commitment->IsFalse()) {
    unite_item(GuardSyms(s.commitment), -1);
  }
  for (const Expr* r : s.residuals) {
    if (r->IsTop() || r->IsZero()) continue;
    unite_item(ExprSyms(r), -1);
  }
  std::vector<uint32_t> classes(n);
  for (size_t i = 0; i < n; ++i) {
    classes[i] = (s.decided >> i & 1) ? static_cast<uint32_t>(i)
                                      : find(static_cast<uint32_t>(i));
  }
  return classes;
}

CheckState StateSpace::Replay(const Trace& u) const {
  CheckState s = Initial();
  for (EventLiteral lit : u) s = Successor(s, lit);
  return s;
}

bool StateSpace::GuardAccepts(const Trace& u) const {
  CheckState s = Initial();
  for (EventLiteral lit : u) {
    if (Commitment(s, lit)->IsFalse()) return false;
    s = Successor(s, lit);
  }
  return s.commitment->IsTrue();
}

}  // namespace cdes::analysis
