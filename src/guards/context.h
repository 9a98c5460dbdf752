#ifndef CDES_GUARDS_CONTEXT_H_
#define CDES_GUARDS_CONTEXT_H_

#include "algebra/event.h"
#include "algebra/expr.h"
#include "algebra/residuation.h"
#include "guards/synthesis.h"
#include "temporal/guard.h"
#include "temporal/reduction.h"

namespace cdes {

/// Bundles the per-system shared state: the alphabet, the hash-consed
/// expression and guard arenas, the residuation engine and the guard
/// synthesizer. Expressions and guards from one context must not be mixed
/// with another context's.
///
/// This is the usual entry point of the library:
///
///   WorkflowContext ctx;
///   EventLiteral e = ctx.alphabet()->InternLiteral("commit_buy");
///   const Expr* d = ...;                        // build dependencies
///   const Guard* g = ctx.synthesizer()->Synthesize(d, e);
class WorkflowContext {
 public:
  WorkflowContext()
      : guards_(&exprs_), residuator_(&exprs_),
        synthesizer_(&guards_, &residuator_) {}

  WorkflowContext(const WorkflowContext&) = delete;
  WorkflowContext& operator=(const WorkflowContext&) = delete;

  Alphabet* alphabet() { return &alphabet_; }
  const Alphabet& alphabet() const { return alphabet_; }
  ExprArena* exprs() { return &exprs_; }
  GuardArena* guards() { return &guards_; }
  Residuator* residuator() { return &residuator_; }
  GuardSynthesizer* synthesizer() { return &synthesizer_; }
  /// The shard-shared (guard, announcement) → reduced-guard memo; thread-
  /// confined with the arenas. Consumers that want memoized assimilation
  /// pass this to ReduceGuard; the cache is correct to share across every
  /// instance built over this context.
  ReductionCache* reduction_cache() { return &reduction_cache_; }

 private:
  Alphabet alphabet_;
  ExprArena exprs_;
  GuardArena guards_;
  Residuator residuator_;
  GuardSynthesizer synthesizer_;
  ReductionCache reduction_cache_;
};

}  // namespace cdes

#endif  // CDES_GUARDS_CONTEXT_H_
