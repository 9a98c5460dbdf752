#ifndef CDES_TEMPORAL_REDUCTION_H_
#define CDES_TEMPORAL_REDUCTION_H_

#include <unordered_map>

#include "algebra/residuation.h"
#include "temporal/guard.h"

namespace cdes {

/// What an event actor can announce to the actors whose guards mention it
/// (§4.3): that the event has occurred (□e), or a promise that it will
/// eventually occur (◇e) used to resolve mutually-referential guards
/// (Example 11).
enum class AnnouncementKind { kOccurred, kPromised };

struct Announcement {
  AnnouncementKind kind;
  EventLiteral literal;

  friend bool operator==(const Announcement&, const Announcement&) = default;
};

/// Assimilates one announcement into a guard, applying the §4.3 proof
/// rules. On □ℓ:
///   □ℓ → ⊤, ¬ℓ → 0, □ℓ̄ → 0, ¬ℓ̄ → ⊤, and ◇E → ◇(E/ℓ)
/// (the residuation handles ◇ℓ → ⊤ and kills branches requiring ℓ̄ or a
/// violated order). On ◇ℓ (a promise):
///   ◇ℓ → ⊤, □ℓ̄ → 0, ◇ℓ̄-requiring branches die, ¬ℓ̄ → ⊤,
/// while □ℓ and ¬ℓ are deliberately unaffected — a promised event has not
/// *occurred* yet.
///
/// Memo of guard reductions keyed on (interned guard node, announcement),
/// living alongside a GuardArena and sharing its lifetime and thread
/// confinement (one per WorkflowContext, hence one per engine shard — no
/// locks). Guards are hash-consed, so the key is one pointer plus the
/// announcement's packed literal index; after the first touch of a
/// (node, announcement) pair, ReduceGuard is a single hash probe. The memo
/// is consulted at composite nodes (◇/+/|) only: □, ¬, and constants reduce
/// in a couple of compares, cheaper than the probe itself.
///
/// Reduction is a pure function of (node, announcement) over arenas that
/// only ever grow, so entries never invalidate; every workflow instance
/// resident on a shard shares one cache against the shard's compiled guard
/// table, which is what makes assimilation cost amortize across thousands
/// of instances.
class ReductionCache {
 public:
  /// Packs an announcement into the memo key: literal index ⊕ kind bit.
  static uint64_t KeyOf(const Announcement& a) {
    return (static_cast<uint64_t>(a.literal.index()) << 1) |
           (a.kind == AnnouncementKind::kPromised ? 1u : 0u);
  }

  const Guard* Find(const Guard* g, uint64_t ann) {
    auto it = map_.find(Key{g, ann});
    if (it == map_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    return it->second;
  }

  void Store(const Guard* g, uint64_t ann, const Guard* reduced) {
    map_.emplace(Key{g, ann}, reduced);
  }

  /// Lifetime probe tallies (engine shards publish them as the
  /// `guards.reduction_cache_{hits,misses}` gauges).
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  size_t size() const { return map_.size(); }

 private:
  struct Key {
    const Guard* g;
    uint64_t ann;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t h = std::hash<const void*>()(k.g);
      h ^= std::hash<uint64_t>()(k.ann) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
      return h;
    }
  };

  std::unordered_map<Key, const Guard*, KeyHash> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// IMPORTANT: ◇E reduction by residuation is order-sensitive; occurrence
/// announcements must be assimilated in occurrence order (the runtime's
/// hold-back queue guarantees this — see runtime/event_actor.h).
///
/// With `cache` non-null the reduction walk memoizes composite nodes in it
/// (the runtime and the model checker always pass their context's cache);
/// null runs the plain walk, the reference the tests compare the memoized
/// walk against (results are identical — the cache stores only values the
/// walk itself computed on the same arenas).
const Guard* ReduceGuard(GuardArena* arena, Residuator* residuator,
                         const Guard* g, const Announcement& announcement,
                         ReductionCache* cache = nullptr);

/// Replaces every atom `dead` inside `e` with 0 (the event can no longer
/// occur) and rebuilds. Unlike residuation this consumes no ordering
/// information.
const Expr* PruneImpossibleLiteral(ExprArena* arena, const Expr* e,
                                   EventLiteral dead);

/// The "commit now" projection of a reduced guard: the condition under
/// which an event may fire at the current instant per the declarative
/// HoldsAt semantics (Definition 4 / Semantics 13-14), rather than the
/// runtime's optimistic EvaluateNow.
///   □ℓ → 0   (ℓ has not occurred within the prefix, so the past cannot
///             license the firing through it)
///   ¬ℓ → ⊤   (ℓ has not occurred within the prefix, so ¬ℓ holds now)
///   ◇E kept  (an obligation on the remainder of the maximal trace)
/// The result therefore mentions only ◇-atoms and constants: 0 means the
/// firing is not permitted; anything else is the obligation the rest of
/// the trace must discharge (the model checker conjoins it into the path
/// commitment and residuates it by each subsequent occurrence, starting
/// with the fired literal itself — ◇ sees the full trace).
const Guard* CommitNow(GuardArena* arena, const Guard* g);

}  // namespace cdes

#endif  // CDES_TEMPORAL_REDUCTION_H_
