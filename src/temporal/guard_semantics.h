#ifndef CDES_TEMPORAL_GUARD_SEMANTICS_H_
#define CDES_TEMPORAL_GUARD_SEMANTICS_H_

#include <vector>

#include "algebra/semantics.h"
#include "algebra/trace.h"
#include "temporal/guard.h"

namespace cdes {

/// u ⊨_i E for an algebra expression coerced into T (Semantics 7-11):
/// satisfaction of E by the prefix of the first `index` events of u. An
/// event atom is satisfied from the index where it occurs onward
/// (stability); sequences require their parts in order within the prefix.
bool HoldsAtExpr(const Trace& u, size_t index, const Expr* e);

/// u ⊨_i g for a guard (Semantics 7-14). `u` must be a maximal trace over
/// the symbols the caller cares about (the universe U_T of §4.1);
/// `index` ranges over 0..u.size().
///
///   □ℓ — ℓ occurred within the first `index` events;
///   ¬ℓ — ℓ did not occur within the first `index` events;
///   ◇E — E is satisfied by the full maximal trace (by stability,
///        ∃j≥i: u ⊨_j E collapses to satisfaction at the end);
///   +/| — boolean.
bool HoldsAt(const Trace& u, size_t index, const Guard* g);

/// A point of the guard state space: a maximal trace and an index into it.
struct GuardPoint {
  Trace trace;
  size_t index;
};

/// All (maximal trace, index) points over `symbols` (in SymbolId order of
/// the set passed); guards over those symbols are fully characterized by
/// their truth values on these points. Size: 2^k · k! · (k+1).
std::vector<GuardPoint> GuardStateSpace(const std::set<SymbolId>& symbols);

/// Most symbols a guard (or dependency) may mention for the exact checks
/// that enumerate its GuardStateSpace: compile-time canonicalization
/// (SimplifyGuard), the analyzer's ≡⊤ / ≡0 checks (CL002–CL004) and the
/// checker's CL021 filter. 6 symbols are 2^6·6!·7 = 322,560 points; beyond
/// that only the cheap guard-constructor rules apply.
inline constexpr size_t kMaxStateSpaceSymbols = 6;

/// Truth values of `g` over `space`.
std::vector<bool> TruthVector(const Guard* g,
                              const std::vector<GuardPoint>& space);

/// Semantic equivalence over the union of the two guards' symbols.
bool GuardEquivalent(const Guard* a, const Guard* b);

}  // namespace cdes

#endif  // CDES_TEMPORAL_GUARD_SEMANTICS_H_
