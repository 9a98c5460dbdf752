#ifndef CDES_ALGEBRA_RESIDUATION_H_
#define CDES_ALGEBRA_RESIDUATION_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/expr.h"
#include "algebra/trace.h"

namespace cdes {

/// Symbolic residuation engine (§3.4).
///
/// Residuation E/e computes the remnant of dependency E after event e occurs
/// (Semantics 6). The rewrite rules (Residuation 1-8) assume no `+`/`|`
/// inside the scope of `·`, so the engine first rewrites to *sequence normal
/// form* by distributing `·` over `+` and `|` (both distributions are
/// validated by the trace semantics). All results are memoized against the
/// shared hash-consed arena, which is what makes the paper's "much of the
/// required symbolic reasoning can be precompiled" practical.
class Residuator {
 public:
  /// The residuator aliases `arena` (not owned); all inputs and outputs are
  /// nodes of that arena.
  explicit Residuator(ExprArena* arena) : arena_(arena) {}

  Residuator(const Residuator&) = delete;
  Residuator& operator=(const Residuator&) = delete;

  /// Rewrites `e` so that no `+` or `|` occurs under a `·` (CNF-style form
  /// required by the Residuation rules). Worst-case exponential; dependency
  /// expressions in workflow practice are small.
  const Expr* NormalForm(const Expr* e);

  /// E/x — the remnant of E after literal x occurs. Implements
  /// Residuation 1-8 on the normal form:
  ///   0/x = 0,  ⊤/x = ⊤                                   (rules 1, 2)
  ///   (x·E)/x = E                                          (rule 3)
  ///   (E1+E2)/x = E1/x + E2/x                              (rule 4)
  ///   (E1|E2)/x = (E1/x)|(E2/x)                            (rule 5)
  ///   E/x = E when x, x̄ ∉ Γ_E                              (rule 6)
  ///   (e'·E)/x = 0 when x ∈ Γ of the tail (order violated) (rule 7)
  ///   (e'·E)/x = 0 when x̄ ∈ Γ of the sequence              (rule 8)
  const Expr* Residuate(const Expr* e, EventLiteral x);

  /// Number of Residuate calls made so far (memoized hits included). The
  /// guard profiler reads deltas of this to attribute residuation work to
  /// guard sites; one unconditional increment is noise next to the memo
  /// lookup each call already performs.
  uint64_t residuate_calls() const { return residuate_calls_; }

  /// Memo effectiveness of the per-node residuation cache: a hit means a
  /// (normal-form node, literal) pair was answered without rule application.
  /// Exported to the obs layer by the scheduler/engine as
  /// `algebra.residuation_cache_{hits,misses}`.
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }

  /// Residuates by every event of `u` in order: ((E/u1)/u2)/.../un.
  const Expr* ResiduateTrace(const Expr* e, const Trace& u);

  /// ResiduateTrace(e, u) for a `mentioned` mask (indexed by SymbolId) that
  /// holds every symbol `e` mentions: a step by any other literal is rule
  /// 6, the identity on the interned node, so it is skipped.
  const Expr* ResiduateTrace(const Expr* e, const Trace& u,
                             const std::vector<bool>& mentioned);

  ExprArena* arena() const { return arena_; }

 private:
  const Expr* ResiduateNormal(const Expr* e, EventLiteral x);

  /// (interned node, literal) key for the residuation memo. Nodes are
  /// hash-consed, so mixing the pointer with the literal's dense index
  /// distributes well; the unordered_map replaces a red-black tree whose
  /// ~log(n) pointer-chasing probes sat directly on the assimilation path.
  struct ResidKeyHash {
    size_t operator()(const std::pair<const Expr*, EventLiteral>& k) const {
      size_t h = std::hash<const void*>()(k.first);
      h ^= std::hash<uint32_t>()(k.second.index()) + 0x9e3779b97f4a7c15ull +
           (h << 6) + (h >> 2);
      return h;
    }
  };

  ExprArena* arena_;
  uint64_t residuate_calls_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  std::unordered_map<const Expr*, const Expr*> normal_cache_;
  std::unordered_map<std::pair<const Expr*, EventLiteral>, const Expr*,
                     ResidKeyHash>
      resid_cache_;
};

/// Model-theoretic residuation (Semantics 6), used as the soundness oracle
/// for Theorem 1 tests: returns, for each trace v of `universe`,
/// whether v ⊨ E/x, i.e. ∀u ⊨ x: uv ∈ U_E ⇒ uv ⊨ E, with u ranging over
/// `universe` as well.
std::vector<bool> ResiduateModelTheoretic(const Expr* e, EventLiteral x,
                                          const std::vector<Trace>& universe);

/// The symbolic scheduler state machine of Figure 2: states are the
/// distinct residuals reachable from D by events of Γ_D; edges are labeled
/// by literals.
struct ResidualGraph {
  /// states[0] is the normal form of the initial dependency; the ⊤ and 0
  /// states, when reachable, appear like any other state.
  std::vector<const Expr*> states;
  /// (state index, literal) → successor state index. Only literals that
  /// change or preserve the state within Γ_D are recorded.
  std::map<std::pair<size_t, EventLiteral>, size_t> edges;

  /// Index of `state` or npos.
  size_t IndexOf(const Expr* state) const;
};

/// Builds the reachable-residual graph of `d` over Γ_D.
ResidualGraph BuildResidualGraph(Residuator* residuator, const Expr* d);

/// Renders the residual graph in Graphviz DOT (Figure 2 as a picture):
/// states labelled by their expressions, ⊤ doubly circled, 0 dashed.
std::string ResidualGraphToDot(const ResidualGraph& graph,
                               const Alphabet& alphabet,
                               std::string_view title = "dependency");

/// True iff some trace satisfies `e` (equivalently: ⊤ is reachable in the
/// residual graph — tested against brute-force enumeration).
bool IsSatisfiable(Residuator* residuator, const Expr* e);

/// Π(D) (Definition 3): event sequences ρ = e1…en over Γ_D (each symbol at
/// most once, consistent polarities) with ((D/e1)/…)/en = ⊤. `max_paths`
/// bounds the enumeration (the set is finite but can be factorially large).
std::vector<Trace> EnumeratePaths(Residuator* residuator, const Expr* d,
                                  size_t max_paths = 100000);

}  // namespace cdes

#endif  // CDES_ALGEBRA_RESIDUATION_H_
