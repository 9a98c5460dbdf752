#ifndef CDES_TEMPORAL_GUARD_H_
#define CDES_TEMPORAL_GUARD_H_

#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "algebra/expr.h"

namespace cdes {

/// Node kinds of the temporal guard language T (§4.1), restricted to the
/// forms guard synthesis actually produces (Definition 2):
///
///   0 / ⊤   — constants
///   □ℓ      — literal ℓ has occurred (equals ℓ under stability, Semantics 7)
///   ¬ℓ      — literal ℓ has not (yet) occurred (Semantics 14)
///   ◇E      — algebra expression E will eventually be satisfied on the
///             (maximal) trace (Semantics 13); residuals D/e appear here
///   +, |    — disjunction and conjunction
///
/// General nesting like ¬(E1·E2) or □(E1+E2) never arises from Definition 2
/// and is intentionally unrepresentable.
enum class GuardKind : uint8_t {
  kFalse,
  kTrue,
  kBox,
  kNeg,
  kDiamond,
  kAnd,
  kOr
};

/// An immutable, arena-owned node of a guard DAG. As with Expr, nodes are
/// hash-consed: pointer equality is structural equality.
class Guard {
 public:
  GuardKind kind() const { return kind_; }

  /// The literal of a kBox / kNeg node.
  EventLiteral literal() const {
    CDES_DCHECK(kind_ == GuardKind::kBox || kind_ == GuardKind::kNeg);
    return literal_;
  }

  /// The residual expression of a kDiamond node.
  const Expr* expr() const {
    CDES_DCHECK(kind_ == GuardKind::kDiamond);
    return expr_;
  }

  /// Children of kAnd / kOr nodes, sorted by id.
  const std::vector<const Guard*>& children() const { return children_; }

  uint64_t id() const { return id_; }

  bool IsTrue() const { return kind_ == GuardKind::kTrue; }
  bool IsFalse() const { return kind_ == GuardKind::kFalse; }

  /// Whether the guard licenses occurrence *now*, with nothing known beyond
  /// what reduction already folded in: ⊤ and ¬ℓ hold (an unreduced ¬ℓ means
  /// ℓ has not been heard), while 0, □ℓ and ◇E do not (the occurrence or
  /// guarantee is not yet known); ∧ needs every child and ∨ any. This is
  /// the runtime's optimistic firability verdict (§4.3; see DESIGN.md for
  /// the soundness discussion). Nodes are immutable, so the arena decides
  /// it once, when it interns the node.
  bool PermitsNow() const { return permits_now_; }

 private:
  friend class GuardArena;
  Guard(GuardKind kind, bool permits_now, EventLiteral literal,
        const Expr* expr, std::vector<const Guard*> children, uint64_t id)
      : kind_(kind), permits_now_(permits_now), literal_(literal), expr_(expr),
        children_(std::move(children)), id_(id) {}

  GuardKind kind_;
  bool permits_now_;
  EventLiteral literal_;
  const Expr* expr_;
  std::vector<const Guard*> children_;
  uint64_t id_;
};

/// Factory and owner of hash-consed guard nodes.
///
/// Construction performs local canonicalization:
///   ◇⊤ = ⊤, ◇0 = 0 (a maximal trace always eventually satisfies ⊤).
///   And/Or: flattened, constants absorbed, duplicates dropped, sorted;
///   the complementary-literal identities of Example 8 are applied for
///   same-literal pairs: □ℓ|¬ℓ = 0, □ℓ+¬ℓ = ⊤ ("¬e is the boolean
///   complement of □e"), and for opposite literals □ℓ|□ℓ̄ = 0.
/// Deeper identities (entailments like □f̄ ⊆ ¬f) are handled by
/// SimplifyGuard in temporal/simplify.h.
class GuardArena {
 public:
  /// Guards embed expressions of `exprs` under ◇; the arena aliases it.
  explicit GuardArena(ExprArena* exprs);

  GuardArena(const GuardArena&) = delete;
  GuardArena& operator=(const GuardArena&) = delete;

  const Guard* False() const { return false_; }
  const Guard* True() const { return true_; }

  const Guard* Box(EventLiteral literal);
  const Guard* Neg(EventLiteral literal);
  const Guard* Diamond(const Expr* expr);

  const Guard* And(std::span<const Guard* const> children);
  const Guard* And(const Guard* a, const Guard* b) {
    const Guard* kids[] = {a, b};
    return And(kids);
  }

  const Guard* Or(std::span<const Guard* const> children);
  const Guard* Or(const Guard* a, const Guard* b) {
    const Guard* kids[] = {a, b};
    return Or(kids);
  }

  ExprArena* exprs() const { return exprs_; }
  size_t node_count() const { return nodes_.size(); }

 private:
  struct NodeKey {
    GuardKind kind;
    uint32_t literal_index;
    const Expr* expr;
    std::vector<const Guard*> children;
    bool operator==(const NodeKey& other) const = default;
  };
  struct NodeKeyHash {
    size_t operator()(const NodeKey& k) const;
  };

  const Guard* Intern(GuardKind kind, EventLiteral literal, const Expr* expr,
                      std::vector<const Guard*> children);

  ExprArena* exprs_;
  std::deque<std::unique_ptr<Guard>> nodes_;
  std::unordered_map<NodeKey, const Guard*, NodeKeyHash> interned_;
  const Guard* false_ = nullptr;
  const Guard* true_ = nullptr;
};

/// Symbols mentioned anywhere in `g` (Box/Neg literals and ◇-expressions).
std::set<SymbolId> GuardSymbols(const Guard* g);

/// The distinct DAG nodes of `g` that `*seen` does not hold yet, which it
/// gains: with an empty `seen`, the size of `g`'s DAG (a node shared by
/// several parents counts once).
size_t GuardNodeCount(const Guard* g, std::unordered_set<const Guard*>* seen);

/// Pretty prints: "[]e" for □e, "!e" for ¬e, "<>(...)" for ◇, with `+`
/// binding looser than `|`.
std::string GuardToString(const Guard* g, const Alphabet& alphabet);

}  // namespace cdes

#endif  // CDES_TEMPORAL_GUARD_H_
