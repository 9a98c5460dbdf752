#ifndef CDES_TEMPORAL_GUARD_SEMANTICS_H_
#define CDES_TEMPORAL_GUARD_SEMANTICS_H_

#include <cstdint>
#include <set>
#include <unordered_map>
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

/// The guard state space over a symbol set as one truth table. Its points
/// are the (maximal trace, index) pairs over the k symbols (U_T of §4.1,
/// index 0..k), and a guard that mentions only those symbols is fully
/// characterized by its truth values on them.
///
/// Each maximal trace is stored once (EnumerateMaximalTraces order, mapped
/// to the caller's symbol ids). Points are trace-major: index i of trace t
/// is point t·(k+1) + i, 2^k·k!·(k+1) points in all. A truth vector packs
/// them 64 to a word, point p in bit p % 64 of word p / 64, and every bit
/// past the last point is zero. Truth() decides □ℓ and ¬ℓ from ℓ's
/// position in each trace, ◇E once per trace (it holds at every index of a
/// trace or at none), and And/Or word by word from their children's
/// vectors; every node's vector is memoized for the table's lifetime.
class GuardTruthTable {
 public:
  using Vector = std::vector<uint64_t>;

  explicit GuardTruthTable(const std::set<SymbolId>& symbols);

  /// The maximal traces over the symbols, each once.
  const std::vector<Trace>& traces() const { return traces_; }
  /// Indices 0..k of each trace.
  size_t points_per_trace() const { return symbol_count_ + 1; }
  size_t point_count() const { return traces_.size() * points_per_trace(); }

  /// Every point: the truth vector of ⊤.
  const Vector& all() const { return all_; }

  /// g's truth vector: bit t·(k+1) + i is HoldsAt(traces()[t], i, g). The
  /// reference stays valid for the table's lifetime, and so must `g`.
  const Vector& Truth(const Guard* g);

  static bool Bit(const Vector& v, size_t point) {
    return ((v[point / 64] >> (point % 64)) & 1) != 0;
  }

 private:
  /// Sets points [begin, end) of `v`.
  static void SetPoints(Vector* v, size_t begin, size_t end);

  size_t symbol_count_;
  std::vector<Trace> traces_;
  Vector all_;
  std::unordered_map<const Guard*, Vector> memo_;
};

/// Most symbols a guard (or dependency) may mention for the exact checks
/// over its GuardTruthTable: compile-time canonicalization
/// (SimplifyGuard), the analyzer's ≡⊤ / ≡0 checks (CL002–CL004) and the
/// checker's CL021 filter. 6 symbols are 2^6·6! = 46,080 maximal traces
/// and 322,560 points, 5,040 words per truth vector; beyond that only the
/// cheap guard-constructor rules apply.
inline constexpr size_t kMaxStateSpaceSymbols = 6;

/// Semantic equivalence over the union of the two guards' symbols.
bool GuardEquivalent(const Guard* a, const Guard* b);

}  // namespace cdes

#endif  // CDES_TEMPORAL_GUARD_SEMANTICS_H_
