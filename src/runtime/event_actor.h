#ifndef CDES_RUNTIME_EVENT_ACTOR_H_
#define CDES_RUNTIME_EVENT_ACTOR_H_

#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "algebra/residuation.h"
#include "obs/profiler.h"
#include "runtime/messages.h"
#include "sched/scheduler.h"
#include "spec/ast.h"
#include "temporal/guard.h"
#include "temporal/reduction.h"

namespace cdes {

class SchedulerObs;

/// Services an EventActor needs from its owning scheduler: message
/// transport, occurrence stamping, bookkeeping, and attribute lookup.
class ActorHost {
 public:
  virtual ~ActorHost() = default;

  /// Delivers `msg` to every actor whose guards mention `from`'s symbol.
  virtual void Broadcast(SymbolId from, const RuntimeMessage& msg) = 0;

  /// Delivers `msg` to the actor owning `target`'s symbol.
  virtual void SendTo(SymbolId from, SymbolId target,
                      const RuntimeMessage& msg) = 0;

  /// Issues the next occurrence stamp (monotone in simulation time).
  virtual OccurrenceStamp NextStamp() = 0;

  /// Appends an occurrence to the global history.
  virtual void RecordOccurrence(EventLiteral literal,
                                OccurrenceStamp stamp) = 0;

  /// Records that a non-rejectable event had to be admitted although its
  /// guard had not been established.
  virtual void RecordViolation(EventLiteral literal) = 0;

  /// Whether the runtime may proactively trigger `literal` (§2: "When
  /// triggered by the system, it causes appropriate events like start").
  virtual bool MayTrigger(EventLiteral literal) const = 0;

  /// Whether the promise protocol (Example 11) is enabled.
  virtual bool PromisesEnabled() const = 0;

  virtual GuardArena* guard_arena() = 0;
  virtual Residuator* residuator() = 0;

  /// The shard-shared reduction memo every assimilation goes through (see
  /// guards/context.h); non-null.
  virtual ReductionCache* reduction_cache() = 0;

  /// Where the actor records each decision it makes (attempts answered,
  /// parks); non-null.
  virtual SchedulerObs* lifecycle() = 0;
};

/// Per-actor profiling attachment, built by the owning scheduler when a
/// GuardProfiler is configured: for each literal, the (dependency, event)
/// sites of the dependencies contributing to its compiled guard, each
/// weighted by its contribution's GuardNodeCount (distinct DAG nodes). Every
/// firability check of a literal counts one evaluation at each of its
/// sites; the check's residuation steps, new guard nodes, and sampled wall
/// time are split across the sites by those weights. The profiler only
/// reads counters around the check, which runs exactly as unprofiled.
struct GuardProfile {
  struct Share {
    obs::GuardProfiler::Site* site;
    uint64_t weight;
  };
  obs::GuardProfiler* profiler = nullptr;
  std::vector<Share> positive;
  std::vector<Share> negative;
};

/// The active entity instantiated for each event type (§2): maintains the
/// current guards of an event symbol's two literals, parks attempts whose
/// guard is not yet ⊤, assimilates incoming announcements and promises, and
/// answers promise requests.
///
/// Assimilation model: the actor keeps the *compiled* guards plus an
/// occurrence log sorted by stamp; the current guard is the compiled guard
/// reduced by the log in stamp order and then by received promises. Sorting
/// by stamp (not arrival) is what keeps ◇E residuation sound when the
/// network reorders announcements.
class EventActor {
 public:
  EventActor(ActorHost* host, SymbolId symbol, int site,
             const Guard* positive_guard, const Guard* negative_guard,
             const EventAttributes& positive_attrs,
             const EventAttributes& negative_attrs);

  EventActor(const EventActor&) = delete;
  EventActor& operator=(const EventActor&) = delete;

  /// A co-located task agent, or the runtime itself (closure, triggers,
  /// obligations), attempts `literal`. The actor records each final answer
  /// it gives as one decision, at once or when the parked entry resolves.
  /// An attempt of a literal that is already parked joins that entry
  /// without evaluating anything; the entry's answer is its answer, so it
  /// is neither a park nor a decision of its own.
  void Attempt(EventLiteral literal, AttemptCallback done);

  /// Recovery: marks `literal` as having occurred without stamping,
  /// logging, or announcing (the recovery driver replays announcements
  /// separately, in stamp order).
  void RestoreOccurrence(EventLiteral literal);

  /// Handles a message from another actor.
  void Receive(const RuntimeMessage& msg);

  /// The literal's guard reduced by everything this actor knows.
  const Guard* CurrentGuard(EventLiteral literal) const;

  /// The compiled guard folded by heard announcements only — no promises,
  /// no ◇-discharge. This is the durable portion of the actor's knowledge:
  /// announcements are logged occurrences, while promises and parked
  /// attempts are soft state the post-recovery protocol re-derives. A
  /// checkpoint snapshots exactly these residuals (runtime/checkpoint.h);
  /// because residuation is a left fold, folding the heard prefix here and
  /// the replayed suffix after recovery equals folding the whole history.
  ///
  /// Read through the per-polarity prefix-fold chain. Chains are safe to
  /// memoize *per ordered-prefix position*: chain[k] depends only on the
  /// first k stamp-ordered entries, and an out-of-order arrival inserted at
  /// index i truncates every chain to length i+1 before any entry past the
  /// insertion point is reused.
  const Guard* HeardResidual(EventLiteral literal) const;

  /// Recovery: replaces the compiled baseline guards with checkpoint
  /// residuals. Only valid on a fresh actor (nothing decided, heard, or
  /// parked).
  void RestoreBaseline(const Guard* positive, const Guard* negative);

  /// Attaches per-dependency profiling (nullptr to detach). `profile` must
  /// outlive the actor.
  void set_profile(const GuardProfile* profile) { profile_ = profile; }

  bool decided() const { return decided_.has_value(); }
  std::optional<EventLiteral> decided_literal() const { return decided_; }
  size_t parked_count() const { return parked_.size(); }
  /// Literals of currently parked attempts, in arrival order.
  std::vector<EventLiteral> ParkedLiterals() const;
  SymbolId symbol() const { return symbol_; }
  int site() const { return site_; }
  /// Whether the runtime may trigger the positive literal itself (§2).
  bool triggerable() const { return positive_attrs_.triggerable; }

 private:
  struct Parked {
    EventLiteral literal;
    AttemptCallback done;
    /// When it parked; its decision latency runs from here.
    SimTime since;
    /// Its parked trace window (SchedulerObs::Park).
    uint64_t window;
  };

  /// A deferred trigger obligation (promise-backed, see
  /// TryAnswerPromiseRequest): the adopted residual, the literal to trigger
  /// when it is the only way left, and the memoized prefix-fold chain —
  /// chain[k] = need residuated by heard_[0..k) (see ReviewObligations for
  /// the order-safety argument).
  struct Obligation {
    const Expr* need;
    EventLiteral literal;
    std::vector<const Expr*> chain;
  };

  const Guard* CompiledGuard(EventLiteral literal) const {
    return literal.complemented() ? negative_guard_ : positive_guard_;
  }

  /// The one firability check of `literal`: the PermitsNow verdict of its
  /// memoized CurrentGuard, which is stored in `*reduced`. With a profile
  /// attached the check is charged to the literal's sites.
  bool Firable(EventLiteral literal, const Guard** reduced) const;

  /// Drops memoized state invalidated by an announcement inserted at
  /// heard_ index `idx` (folds of prefixes ≤ idx stay valid).
  void TruncateFoldChains(size_t idx);

  /// Replaces ◇E nodes whose residual is guaranteed by the held ordered
  /// promises with ⊤: every linearization of the promised events that is
  /// consistent with their after-sets must satisfy E.
  const Guard* DischargeDiamonds(const Guard* g) const;
  const EventAttributes& Attrs(EventLiteral literal) const {
    return literal.complemented() ? negative_attrs_ : positive_attrs_;
  }

  /// Makes `literal` occur: stamps, records, announces, resolves parked
  /// attempts of both polarities.
  void Occur(EventLiteral literal);

  /// Settles an attempt of `literal` that may not wait (its guard reduced
  /// to 0, or it is nondelayable) and returns its answer: rejected when
  /// rejectable, otherwise admitted as a violation.
  Decision Refuse(EventLiteral literal);

  /// Gives an attempt of `literal` its final answer `d` and records it as
  /// one decision; `entry` is the parked entry the answer resolves, null
  /// for an attempt answered at once.
  void Answer(EventLiteral literal, Decision d, const AttemptCallback& done,
              const Parked* entry = nullptr);

  /// Re-evaluates parked attempts and pending promise requests after any
  /// state change; loops to a fixpoint.
  void Reevaluate();

  /// Sends promise requests / triggers for the events the reduced guard of
  /// a parked literal still needs.
  void EmitNeeds(EventLiteral parked, const Guard* reduced);

  /// Answers `request` if this actor can now promise; returns true when
  /// consumed. Two grant paths: a parked attempt that is certain to follow
  /// the requester (Example 11), or — for a triggerable event — a
  /// trigger-backed promise that adopts the requester's residual as a
  /// deferred obligation.
  bool TryAnswerPromiseRequest(const RuntimeMessage& request);

  /// Re-examines deferred trigger obligations after an announcement:
  /// obligations whose residual is satisfied are dropped; obligations that
  /// can only be met by this event any more cause a self-trigger.
  void ReviewObligations();

  ActorHost* host_;
  SymbolId symbol_;
  int site_;
  const Guard* positive_guard_;
  const Guard* negative_guard_;
  EventAttributes positive_attrs_;
  EventAttributes negative_attrs_;
  const GuardProfile* profile_ = nullptr;
  /// Host capabilities resolved once at construction (virtual calls off the
  /// hot path).
  ReductionCache* cache_;
  SchedulerObs* lifecycle_;

  std::optional<EventLiteral> decided_;
  /// (stamp, literal) occurrences heard, kept sorted by stamp.
  std::vector<std::pair<OccurrenceStamp, EventLiteral>> heard_;
  /// Promises ◇ℓ received: literal → events guaranteed to precede it.
  std::map<EventLiteral, std::set<EventLiteral>> promises_;
  std::vector<Parked> parked_;
  /// Promise requests we could not answer yet.
  std::vector<RuntimeMessage> pending_requests_;
  /// Dedup for outgoing requests (needed literal, requesting literal).
  std::set<std::pair<EventLiteral, EventLiteral>> requests_sent_;
  std::set<EventLiteral> triggers_sent_;
  /// Literals of this symbol already promised, per requester symbol.
  std::set<std::pair<EventLiteral, SymbolId>> promises_made_;
  /// Residuals this (triggerable) event has promised to see satisfied.
  std::vector<Obligation> obligations_;
  bool reevaluating_ = false;

  // ---- Memoized evaluation state.
  /// Per-polarity prefix-fold chains: chain[k] = compiled guard reduced by
  /// heard_[0..k) in stamp order (chain[0] is the compiled guard itself).
  mutable std::vector<const Guard*> pos_chain_;
  mutable std::vector<const Guard*> neg_chain_;
  /// CurrentGuard results memoized against the knowledge version: any
  /// heard_/promises_ change bumps version_, invalidating both slots.
  /// Indexed by literal polarity.
  mutable const Guard* current_memo_[2] = {nullptr, nullptr};
  mutable uint64_t current_memo_version_[2] = {0, 0};
  uint64_t version_ = 1;
};

}  // namespace cdes

#endif  // CDES_RUNTIME_EVENT_ACTOR_H_
