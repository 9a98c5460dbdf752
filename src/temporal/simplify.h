#ifndef CDES_TEMPORAL_SIMPLIFY_H_
#define CDES_TEMPORAL_SIMPLIFY_H_

#include "temporal/guard.h"
#include "temporal/guard_semantics.h"

namespace cdes {

/// Semantically canonicalizing simplifier.
///
/// Computes the guard's truth vector over the GuardTruthTable of its
/// mentioned symbols (exact, since guards only inspect those symbols) and
/// then greedily prunes: constants, child replacement, and child dropping
/// in And/Or nodes, accepting any rewrite that preserves the vector on the
/// care set. This is how guards collapse to the paper's succinct forms,
/// e.g. Example 9's G(D_<, e) = ¬f and G(D_<, f) = ◇ē + □e.
///
/// Exponential in the number k of mentioned symbols: the table holds the
/// 2^k·k! maximal traces once, and each truth vector is 2^k·k!·(k+1) bits
/// packed 64 to a word (360 words at k = 5, 5,040 at k = 6). Every node
/// the pruning visits or builds gets its vector once — □ℓ/¬ℓ and ◇E by one
/// pass over the traces, And/Or by word-wise operations on its children's
/// vectors — and each care, target and sibling-cover test is a masked word
/// operation. Guards of one dependency mention |Γ_D| symbols, which is
/// small in practice; beyond kMaxStateSpaceSymbols callers keep the cheap
/// constructor rules and runtime reduction only.
const Guard* SimplifyGuard(GuardArena* arena, const Guard* g);

/// True iff `g` holds on every point of its truth table (i.e. ≡ ⊤).
bool GuardIsValid(const Guard* g);

/// True iff `g` holds on no point (i.e. ≡ 0).
bool GuardIsUnsatisfiable(const Guard* g);

}  // namespace cdes

#endif  // CDES_TEMPORAL_SIMPLIFY_H_
