#include "temporal/guard.h"

#include <algorithm>

#include "common/strings.h"

namespace cdes {
namespace {

// Detects the local contradictions/tautologies among literal atoms that
// Example 8 derives: for the same index i,
//   □ℓ and ¬ℓ are boolean complements;
//   □ℓ and □ℓ̄ cannot both hold (one polarity per trace);
//   ◇ℓ and ◇ℓ̄ cannot both hold.
bool AtomsContradict(const Guard* a, const Guard* b) {
  if (a->kind() == GuardKind::kBox && b->kind() == GuardKind::kBox) {
    return a->literal() == b->literal().Complemented();
  }
  if ((a->kind() == GuardKind::kBox && b->kind() == GuardKind::kNeg) ||
      (a->kind() == GuardKind::kNeg && b->kind() == GuardKind::kBox)) {
    return a->literal() == b->literal();
  }
  if (a->kind() == GuardKind::kDiamond && b->kind() == GuardKind::kDiamond) {
    const Expr* ea = a->expr();
    const Expr* eb = b->expr();
    return ea->IsAtom() && eb->IsAtom() &&
           ea->literal() == eb->literal().Complemented();
  }
  return false;
}

bool AtomsExhaustive(const Guard* a, const Guard* b) {
  // □ℓ + ¬ℓ = ⊤ and ◇ℓ + ◇ℓ̄ = ⊤ (Example 8 results (b) and (e)).
  if ((a->kind() == GuardKind::kBox && b->kind() == GuardKind::kNeg) ||
      (a->kind() == GuardKind::kNeg && b->kind() == GuardKind::kBox)) {
    return a->literal() == b->literal();
  }
  if (a->kind() == GuardKind::kDiamond && b->kind() == GuardKind::kDiamond) {
    const Expr* ea = a->expr();
    const Expr* eb = b->expr();
    return ea->IsAtom() && eb->IsAtom() &&
           ea->literal() == eb->literal().Complemented();
  }
  return false;
}

void CollectGuardSymbols(const Guard* g, std::set<SymbolId>* out) {
  switch (g->kind()) {
    case GuardKind::kFalse:
    case GuardKind::kTrue:
      return;
    case GuardKind::kBox:
    case GuardKind::kNeg:
      out->insert(g->literal().symbol());
      return;
    case GuardKind::kDiamond: {
      std::set<SymbolId> inner = MentionedSymbols(g->expr());
      out->insert(inner.begin(), inner.end());
      return;
    }
    case GuardKind::kAnd:
    case GuardKind::kOr:
      for (const Guard* c : g->children()) CollectGuardSymbols(c, out);
      return;
  }
}

int GuardPrecedence(GuardKind kind) {
  switch (kind) {
    case GuardKind::kOr:
      return 1;
    case GuardKind::kAnd:
      return 2;
    default:
      return 3;
  }
}

void PrintGuard(const Guard* g, const Alphabet& alphabet, int parent_prec,
                std::string* out) {
  int prec = GuardPrecedence(g->kind());
  switch (g->kind()) {
    case GuardKind::kFalse:
      *out += "0";
      return;
    case GuardKind::kTrue:
      *out += "T";
      return;
    case GuardKind::kBox:
      *out += StrCat("[]", alphabet.LiteralName(g->literal()));
      return;
    case GuardKind::kNeg:
      *out += StrCat("!", alphabet.LiteralName(g->literal()));
      return;
    case GuardKind::kDiamond:
      *out += StrCat("<>(", ExprToString(g->expr(), alphabet), ")");
      return;
    case GuardKind::kAnd:
    case GuardKind::kOr: {
      const char* sep = g->kind() == GuardKind::kAnd ? " | " : " + ";
      bool parens = prec < parent_prec;
      if (parens) *out += "(";
      bool first = true;
      for (const Guard* c : g->children()) {
        if (!first) *out += sep;
        first = false;
        PrintGuard(c, alphabet, prec + 1, out);
      }
      if (parens) *out += ")";
      return;
    }
  }
}

}  // namespace

size_t GuardArena::NodeKeyHash::operator()(const NodeKey& k) const {
  size_t h = static_cast<size_t>(k.kind) * 0x9E3779B97F4A7C15ULL;
  h ^= std::hash<uint32_t>()(k.literal_index) + (h << 6);
  h ^= std::hash<const void*>()(k.expr) + (h << 6) + (h >> 2);
  for (const Guard* c : k.children) {
    h ^= std::hash<uint64_t>()(c->id()) + 0x9E3779B9u + (h << 6) + (h >> 2);
  }
  return h;
}

GuardArena::GuardArena(ExprArena* exprs) : exprs_(exprs) {
  false_ = Intern(GuardKind::kFalse, EventLiteral(), nullptr, {});
  true_ = Intern(GuardKind::kTrue, EventLiteral(), nullptr, {});
}

const Guard* GuardArena::Intern(GuardKind kind, EventLiteral literal,
                                const Expr* expr,
                                std::vector<const Guard*> children) {
  NodeKey key{kind, literal.valid() ? literal.index() : 0xFFFFFFFFu, expr,
              children};
  auto it = interned_.find(key);
  if (it != interned_.end()) return it->second;
  // The new node's firability verdict (Guard::PermitsNow), decided once.
  bool permits_now = kind == GuardKind::kTrue || kind == GuardKind::kNeg;
  if (kind == GuardKind::kAnd) {
    permits_now = std::all_of(children.begin(), children.end(),
                              [](const Guard* c) { return c->PermitsNow(); });
  } else if (kind == GuardKind::kOr) {
    permits_now = std::any_of(children.begin(), children.end(),
                              [](const Guard* c) { return c->PermitsNow(); });
  }
  auto node = std::unique_ptr<Guard>(new Guard(
      kind, permits_now, literal, expr, std::move(children), nodes_.size()));
  const Guard* ptr = node.get();
  nodes_.push_back(std::move(node));
  interned_.emplace(std::move(key), ptr);
  return ptr;
}

const Guard* GuardArena::Box(EventLiteral literal) {
  CDES_CHECK(literal.valid());
  return Intern(GuardKind::kBox, literal, nullptr, {});
}

const Guard* GuardArena::Neg(EventLiteral literal) {
  CDES_CHECK(literal.valid());
  return Intern(GuardKind::kNeg, literal, nullptr, {});
}

const Guard* GuardArena::Diamond(const Expr* expr) {
  if (expr->IsTop()) return true_;
  if (expr->IsZero()) return false_;
  // Maximal traces decide every symbol one way (U_T), so a choice offering
  // both polarities of a symbol is eventually satisfied: ◇(…+e+ē+…) = ⊤
  // (Example 8 (b)).
  if (expr->kind() == ExprKind::kOr) {
    for (const Expr* a : expr->children()) {
      if (!a->IsAtom()) continue;
      for (const Expr* b : expr->children()) {
        if (b->IsAtom() && b->literal() == a->literal().Complemented()) {
          return true_;
        }
      }
    }
  }
  return Intern(GuardKind::kDiamond, EventLiteral(), expr, {});
}

const Guard* GuardArena::And(std::span<const Guard* const> children) {
  std::vector<const Guard*> flat;
  for (const Guard* c : children) {
    if (c->IsFalse()) return false_;
    if (c->IsTrue()) continue;
    if (c->kind() == GuardKind::kAnd) {
      flat.insert(flat.end(), c->children().begin(), c->children().end());
    } else {
      flat.push_back(c);
    }
  }
  std::sort(flat.begin(), flat.end(),
            [](const Guard* a, const Guard* b) { return a->id() < b->id(); });
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  for (size_t i = 0; i < flat.size(); ++i) {
    for (size_t j = i + 1; j < flat.size(); ++j) {
      if (AtomsContradict(flat[i], flat[j])) return false_;
    }
  }
  if (flat.empty()) return true_;
  if (flat.size() == 1) return flat[0];
  return Intern(GuardKind::kAnd, EventLiteral(), nullptr, std::move(flat));
}

const Guard* GuardArena::Or(std::span<const Guard* const> children) {
  std::vector<const Guard*> flat;
  for (const Guard* c : children) {
    if (c->IsTrue()) return true_;
    if (c->IsFalse()) continue;
    if (c->kind() == GuardKind::kOr) {
      flat.insert(flat.end(), c->children().begin(), c->children().end());
    } else {
      flat.push_back(c);
    }
  }
  std::sort(flat.begin(), flat.end(),
            [](const Guard* a, const Guard* b) { return a->id() < b->id(); });
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  for (size_t i = 0; i < flat.size(); ++i) {
    for (size_t j = i + 1; j < flat.size(); ++j) {
      if (AtomsExhaustive(flat[i], flat[j])) return true_;
    }
  }
  // ◇E1 + ◇E2 = ◇(E1 + E2): keep sibling eventualities as one residual so
  // the runtime sees the full set of alternatives (this also keeps
  // trigger obligations honest — see runtime/event_actor.cc).
  std::vector<const Expr*> diamond_exprs;
  for (const Guard* c : flat) {
    if (c->kind() == GuardKind::kDiamond) diamond_exprs.push_back(c->expr());
  }
  if (diamond_exprs.size() >= 2) {
    std::vector<const Guard*> rest;
    for (const Guard* c : flat) {
      if (c->kind() != GuardKind::kDiamond) rest.push_back(c);
    }
    const Guard* merged = Diamond(exprs_->Or(diamond_exprs));
    if (merged->IsTrue()) return true_;
    rest.push_back(merged);
    std::sort(rest.begin(), rest.end(),
              [](const Guard* a, const Guard* b) { return a->id() < b->id(); });
    flat = std::move(rest);
  }
  if (flat.empty()) return false_;
  if (flat.size() == 1) return flat[0];
  return Intern(GuardKind::kOr, EventLiteral(), nullptr, std::move(flat));
}

std::set<SymbolId> GuardSymbols(const Guard* g) {
  std::set<SymbolId> out;
  CollectGuardSymbols(g, &out);
  return out;
}

size_t GuardNodeCount(const Guard* g, std::unordered_set<const Guard*>* seen) {
  if (!seen->insert(g).second) return 0;
  size_t n = 1;
  for (const Guard* c : g->children()) n += GuardNodeCount(c, seen);
  return n;
}

std::string GuardToString(const Guard* g, const Alphabet& alphabet) {
  std::string out;
  PrintGuard(g, alphabet, 0, &out);
  return out;
}

}  // namespace cdes
