#include "temporal/simplify.h"

#include <algorithm>

namespace cdes {
namespace {

using Vector = GuardTruthTable::Vector;

// All pruning below works relative to a *care set*: points of the state
// space where the rewritten guard must agree with the target vector.
// Points outside the care set are don't-cares (e.g. inside an Or child,
// points where another sibling is already true). Care sets are packed like
// truth vectors, so the bits past the last point are never cared about.

bool MatchesOnCare(const Vector& vec, const Vector& care,
                   const Vector& target) {
  for (size_t w = 0; w < vec.size(); ++w) {
    if ((care[w] & (vec[w] ^ target[w])) != 0) return false;
  }
  return true;
}

bool ConstantOnCare(const Vector& care, const Vector& target, bool value) {
  const uint64_t flip = value ? ~uint64_t{0} : 0;
  for (size_t w = 0; w < care.size(); ++w) {
    if ((care[w] & (target[w] ^ flip)) != 0) return false;
  }
  return true;
}

const Guard* Prune(GuardArena* arena, const Guard* g, GuardTruthTable* table,
                   const Vector& care, const Vector& target) {
  if (ConstantOnCare(care, target, true)) return arena->True();
  if (ConstantOnCare(care, target, false)) return arena->False();
  if (g->kind() != GuardKind::kAnd && g->kind() != GuardKind::kOr) return g;

  // Promote a child that already matches on the care set.
  for (const Guard* c : g->children()) {
    if (MatchesOnCare(table->Truth(c), care, target)) {
      return Prune(arena, c, table, care, target);
    }
  }

  // Drop children while the node still matches on the care set.
  const Guard* current = g;
  bool changed = true;
  while (changed && (current->kind() == GuardKind::kAnd ||
                     current->kind() == GuardKind::kOr)) {
    changed = false;
    for (size_t i = 0; i < current->children().size(); ++i) {
      std::vector<const Guard*> kids;
      for (size_t j = 0; j < current->children().size(); ++j) {
        if (j != i) kids.push_back(current->children()[j]);
      }
      const Guard* candidate = current->kind() == GuardKind::kAnd
                                   ? arena->And(kids)
                                   : arena->Or(kids);
      if (MatchesOnCare(table->Truth(candidate), care, target)) {
        current = candidate;
        changed = true;
        break;
      }
    }
  }
  if (current->kind() != GuardKind::kAnd &&
      current->kind() != GuardKind::kOr) {
    return Prune(arena, current, table, care, target);
  }

  // Simplify each child under the don't-cares granted by its siblings:
  // for Or, a point already covered by another true sibling (with target
  // true) lets the child do anything; dually for And with a false sibling.
  bool is_and = current->kind() == GuardKind::kAnd;
  std::vector<const Guard*> kids(current->children());
  Vector child_care;
  for (size_t i = 0; i < kids.size(); ++i) {
    child_care = care;
    for (size_t j = 0; j < kids.size(); ++j) {
      if (j == i) continue;
      const Vector& vj = table->Truth(kids[j]);
      for (size_t w = 0; w < child_care.size(); ++w) {
        // Or: sibling true covers target-true points.
        // And: sibling false covers target-false points.
        child_care[w] &= is_and ? (vj[w] | target[w]) : ~(vj[w] & target[w]);
      }
    }
    kids[i] = Prune(arena, kids[i], table, child_care, target);
  }
  const Guard* rebuilt = is_and ? arena->And(kids) : arena->Or(kids);
  // The rebuild must still match; fall back to the input if a degenerate
  // interaction between don't-cares broke it (cannot happen for correct
  // care propagation, but we never trade correctness for succinctness).
  if (!MatchesOnCare(table->Truth(rebuilt), care, target)) {
    return current;
  }
  // Child simplification may enable further drops (e.g. a child weakened
  // into subsuming a sibling); iterate to a fixpoint.
  if (rebuilt != current) {
    return Prune(arena, rebuilt, table, care, target);
  }
  return rebuilt;
}

}  // namespace

const Guard* SimplifyGuard(GuardArena* arena, const Guard* g) {
  GuardTruthTable table(GuardSymbols(g));
  return Prune(arena, g, &table, table.all(), table.Truth(g));
}

bool GuardIsValid(const Guard* g) {
  GuardTruthTable table(GuardSymbols(g));
  return table.Truth(g) == table.all();
}

bool GuardIsUnsatisfiable(const Guard* g) {
  GuardTruthTable table(GuardSymbols(g));
  const Vector& v = table.Truth(g);
  return std::all_of(v.begin(), v.end(), [](uint64_t w) { return w == 0; });
}

}  // namespace cdes
