#ifndef CDES_TEMPORAL_FLAT_EVAL_H_
#define CDES_TEMPORAL_FLAT_EVAL_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "temporal/guard.h"

namespace cdes {

/// One instruction of a flattened guard program: the node kind plus, for
/// +/|, a span into FlatProgram::children. `node` keeps the originating
/// interned guard node — the CommitNow projection needs it back.
struct FlatOp {
  GuardKind kind;
  const Guard* node;
  uint32_t first_child = 0;  // index into FlatProgram::children
  uint32_t child_count = 0;
};

/// A guard DAG lowered to a flat postorder instruction array: children
/// precede parents, shared sub-DAGs are deduplicated by interned pointer
/// (each distinct node appears once), and the last op is the root. A single
/// forward sweep with a value-per-op scratch evaluates the whole DAG
/// iteratively — no recursion, no pointer chasing beyond the child index
/// array, and shared subterms are evaluated once instead of once per
/// reference.
struct FlatProgram {
  std::vector<FlatOp> ops;
  std::vector<uint32_t> children;  // op indices, grouped per +/| node

  /// Lowers `g` (dedup by pointer, postorder).
  static FlatProgram Lower(const Guard* g);

  /// The optimistic runtime evaluation (≡ EventActor::EvaluateNow): ¬ℓ is
  /// true while ℓ is unheard, □/◇ require positive knowledge. `scratch` is
  /// caller-owned reusable storage.
  bool EvaluateNow(std::vector<unsigned char>* scratch) const;
};

/// Compiles interned guard nodes to FlatPrograms and memoizes the two pure
/// per-node projections the hot paths keep recomputing: the optimistic
/// EvaluateNow boolean and the CommitNow guard. Everything is keyed by
/// interned pointer (pointer equality is structural equality), so each
/// projection is computed once per distinct guard shape per shard, ever.
/// Thread-confined like the arenas it indexes (one per WorkflowContext).
class FlatEvaluator {
 public:
  /// The flat program of `g`, lowered on first touch. The reference stays
  /// valid for the evaluator's lifetime (programs are heap-pinned).
  const FlatProgram& ProgramFor(const Guard* g);

  /// Memoized optimistic evaluation (≡ the recursive
  /// EventActor::EvaluateNow — a pure function of the node).
  bool EvaluateNow(const Guard* g);

  /// Memoized CommitNow projection (≡ cdes::CommitNow), computed by one
  /// postorder sweep over the flat program. `arena` must be the arena `g`
  /// lives in.
  const Guard* Commit(GuardArena* arena, const Guard* g);

  size_t program_count() const { return programs_.size(); }

 private:
  std::unordered_map<const Guard*, std::unique_ptr<FlatProgram>> programs_;
  std::unordered_map<const Guard*, bool> now_memo_;
  std::unordered_map<const Guard*, const Guard*> commit_memo_;
  std::vector<unsigned char> scratch_;
  std::vector<const Guard*> guard_scratch_;
};

}  // namespace cdes

#endif  // CDES_TEMPORAL_FLAT_EVAL_H_
