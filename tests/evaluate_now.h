// The recursive reference walk of the runtime's optimistic firability
// verdict. Production reads the verdict off each interned node
// (Guard::PermitsNow, decided when the arena interns it); temporal_test
// and symbolic_cache_test check the stored bit against this walk.

#ifndef CDES_TESTS_EVALUATE_NOW_H_
#define CDES_TESTS_EVALUATE_NOW_H_

#include "temporal/guard.h"

namespace cdes {

// Whether a reduced guard licenses occurrence now: ¬ℓ atoms count as true
// while ℓ is unheard (the event has not yet occurred), whereas □/◇ atoms
// require positive knowledge (an announcement or a promise).
inline bool EvaluateNow(const Guard* g) {
  switch (g->kind()) {
    case GuardKind::kTrue:
    case GuardKind::kNeg:
      return true;
    case GuardKind::kFalse:
    case GuardKind::kBox:
    case GuardKind::kDiamond:
      return false;
    case GuardKind::kAnd:
      for (const Guard* c : g->children()) {
        if (!EvaluateNow(c)) return false;
      }
      return true;
    case GuardKind::kOr:
      for (const Guard* c : g->children()) {
        if (EvaluateNow(c)) return true;
      }
      return false;
  }
  return false;
}

}  // namespace cdes

#endif  // CDES_TESTS_EVALUATE_NOW_H_
