#ifndef CDES_ANALYSIS_STATE_SPACE_H_
#define CDES_ANALYSIS_STATE_SPACE_H_

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "algebra/trace.h"
#include "guards/context.h"
#include "guards/workflow.h"

namespace cdes::analysis {

/// One canonical exploration state of the guard-executing model checker:
/// which symbols have been decided (and how), the synthesized guard of every
/// still-undecided literal reduced by the occurrences so far, the pending
/// commitment (the conjunction of the ◇-obligations frozen when events
/// fired), and the residual of every source dependency.
///
/// Every component is an interned pointer (guards and expressions are
/// hash-consed, reductions are memoized and deterministic), so two
/// interleavings that converge — fire the same literal set and leave the
/// same residual knowledge — produce bitwise-equal states. That is what
/// makes memoized exploration collapse the factorial interleaving space to
/// the much smaller canonical-state graph.
struct CheckState {
  /// Bit i set ⇔ symbols()[i] has been decided (one polarity occurred).
  uint64_t decided = 0;
  /// Bit i set ⇔ symbols()[i] was decided positively. Subset of `decided`.
  uint64_t positive = 0;
  /// Reduced guards, indexed 2*i (positive literal) / 2*i+1 (complement).
  /// nullptr once the symbol is decided, and for every slot once the
  /// commitment has collapsed to 0 (a guard-dead state is explored for the
  /// spec side only, so guard history must not split otherwise-equal
  /// states).
  std::vector<const Guard*> guards;
  /// The conjunction of frozen firing obligations, reduced by every
  /// occurrence since. ⊤ initially; 0 once any fired event's obligation is
  /// violated — and 0 is absorbing, so commitment ≠ 0 means the whole path
  /// was guard-legal.
  const Guard* commitment = nullptr;
  /// Residual D/u of each source dependency, in spec order.
  std::vector<const Expr*> residuals;

  friend bool operator==(const CheckState&, const CheckState&) = default;
};

struct CheckStateHash {
  size_t operator()(const CheckState& s) const;
};

/// The transition engine the model checker explores: successor computation
/// (guard reduction + obligation freezing + dependency residuation) and the
/// per-state entanglement partition used for partial-order reduction.
///
/// Firing semantics match the declarative Definition 4 rather than the
/// optimistic runtime verdict (Guard::PermitsNow): a literal may fire when
/// the "commit now" projection of its reduced guard (temporal/reduction.h
/// CommitNow: □→0, ¬→⊤, ◇ kept) is not 0; the surviving ◇-part becomes an
/// obligation that the rest of the trace must discharge. A maximal path is
/// guard-accepted iff every firing was permitted and the final commitment
/// is ⊤ — which the model-checker property test pins to
/// CompiledWorkflow::Generates. The runtime's optimistic test sits beside
/// it as EnabledNow, which the checker's ¬-race rule (CL024) asks of every
/// literal.
class StateSpace {
 public:
  /// Aliases `ctx` and `compiled`; both must outlive the state space.
  /// Guard reduction goes through the context's shard-shared
  /// ReductionCache and CommitNow through a per-node memo of this state
  /// space (symbolic_cache_test checks both against the plain walks).
  StateSpace(WorkflowContext* ctx, const CompiledWorkflow& compiled);

  /// The workflow's symbols in id order; state bit i refers to symbols()[i].
  const std::vector<SymbolId>& symbols() const { return symbols_; }
  size_t dependency_count() const { return deps_.size(); }

  CheckState Initial() const;

  bool Maximal(const CheckState& s) const { return s.decided == all_mask_; }
  /// The guard-side of the path is still legal (commitment ≠ 0).
  bool GuardAlive(const CheckState& s) const {
    return !s.commitment->IsFalse();
  }
  /// No dependency residual has collapsed to 0.
  bool SpecAlive(const CheckState& s) const;
  /// Maximal and guard-accepted: the synthesized guards generate this path.
  bool Accepted(const CheckState& s) const {
    return Maximal(s) && s.commitment->IsTrue();
  }
  /// Every dependency residual is ⊤ (at a maximal state: ⊤ or 0).
  bool SpecSatisfied(const CheckState& s) const;

  /// The CommitNow projection of `lit`'s reduced guard at s: 0 when the
  /// literal is not permitted now. Only meaningful while GuardAlive(s).
  const Guard* Commitment(const CheckState& s, EventLiteral lit) const;

  /// The runtime's optimistic test of `lit`'s reduced guard at s, its
  /// Guard::PermitsNow: ¬ℓ holds while ℓ has not occurred, □ℓ and ◇ℓ only
  /// once it has. An enabled literal's Commitment is ⊤, so firing it adds
  /// no obligation. false unless GuardAlive(s).
  bool EnabledNow(const CheckState& s, EventLiteral lit) const;

  /// The state after `lit` occurs. The caller decides whether the child is
  /// worth keeping (see Dead below).
  CheckState Successor(const CheckState& s, EventLiteral lit) const;

  /// A state that is neither guard-alive nor spec-alive: no diagnostic can
  /// come out of its subtree, so exploration prunes it.
  bool Dead(const CheckState& s) const {
    return !GuardAlive(s) && !SpecAlive(s);
  }

  /// Partitions the *undecided* symbols of s into entanglement classes:
  /// two symbols are entangled when some tracked item — an undecided
  /// literal's reduced guard (tagged with its owner), one top-level
  /// conjunct of the commitment, or one dependency residual — mentions
  /// both. Transitions in different classes commute exactly (reduction by
  /// an unrelated literal is the identity on interned nodes), which is the
  /// independence relation behind the ample-set reduction.
  /// Returns, for each symbol index, the class representative (the least
  /// entangled symbol index), or the index itself for decided symbols.
  std::vector<uint32_t> EntangledClasses(const CheckState& s) const;

  size_t SymbolIndex(SymbolId symbol) const;
  EventLiteral LiteralAt(size_t symbol_index, bool complemented) const {
    return EventLiteral(symbols_[symbol_index], complemented);
  }

  /// Replays `u` from Initial() through Successor; u must be a valid trace
  /// over the workflow's symbols. Returns the final state.
  CheckState Replay(const Trace& u) const;

  /// Whether the synthesized guards accept maximal trace `u`: every firing
  /// was permitted (CommitNow ≠ 0 with the commitment still alive) and the
  /// final commitment is ⊤. Agrees with CompiledWorkflow::Generates.
  bool GuardAccepts(const Trace& u) const;

  WorkflowContext* ctx() const { return ctx_; }
  const CompiledWorkflow& compiled() const { return compiled_; }

 private:
  const std::set<SymbolId>& GuardSyms(const Guard* g) const;
  const std::set<SymbolId>& ExprSyms(const Expr* e) const;
  /// CommitNow of the reduced guard `g`, memoized per node.
  const Guard* Commit(const Guard* g) const;

  WorkflowContext* ctx_;
  const CompiledWorkflow& compiled_;
  ReductionCache* cache_;
  std::vector<SymbolId> symbols_;
  std::unordered_map<SymbolId, size_t> symbol_index_;
  std::vector<const Expr*> deps_;  // normal forms, spec order
  uint64_t all_mask_ = 0;

  // Symbol-set and CommitNow memos keyed by interned node (reduction
  // reuses nodes heavily, so these hit constantly during entanglement
  // partitioning and firing).
  mutable std::unordered_map<const Guard*, std::set<SymbolId>> guard_syms_;
  mutable std::unordered_map<const Expr*, std::set<SymbolId>> expr_syms_;
  mutable std::unordered_map<const Guard*, const Guard*> commit_;
};

}  // namespace cdes::analysis

#endif  // CDES_ANALYSIS_STATE_SPACE_H_
