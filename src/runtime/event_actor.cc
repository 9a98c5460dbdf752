#include "runtime/event_actor.h"

#include <algorithm>

#include "algebra/semantics.h"
#include "sched/scheduler_obs.h"
#include "temporal/guard_needs.h"
#include "temporal/reduction.h"

namespace cdes {

bool EventActor::EvaluateNow(const Guard* g) {
  switch (g->kind()) {
    case GuardKind::kTrue:
      return true;
    case GuardKind::kFalse:
      return false;
    case GuardKind::kNeg:
      // Unreduced ¬ℓ means ℓ has not been heard: true at this instant.
      return true;
    case GuardKind::kBox:
    case GuardKind::kDiamond:
      // Unreduced □/◇ means the occurrence / guarantee is not yet known.
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

EventActor::EventActor(ActorHost* host, SymbolId symbol, int site,
                       const Guard* positive_guard,
                       const Guard* negative_guard,
                       const EventAttributes& positive_attrs,
                       const EventAttributes& negative_attrs)
    : host_(host), symbol_(symbol), site_(site),
      positive_guard_(positive_guard), negative_guard_(negative_guard),
      positive_attrs_(positive_attrs), negative_attrs_(negative_attrs),
      cache_(host->reduction_cache()), flat_(host->flat_evaluator()),
      lifecycle_(host->lifecycle()) {
  CDES_DCHECK(cache_ != nullptr && flat_ != nullptr && lifecycle_ != nullptr);
}

const Guard* EventActor::HeardResidual(EventLiteral literal) const {
  std::vector<const Guard*>& chain =
      literal.complemented() ? neg_chain_ : pos_chain_;
  if (chain.empty()) chain.push_back(CompiledGuard(literal));
  // Extend the memoized prefix: only arrivals past the chain's current
  // length are folded, each exactly once over the actor's lifetime (absent
  // out-of-order truncation). Occurrences must be assimilated in stamp
  // order for ◇E residuation to be sound; heard_ is kept sorted by stamp.
  while (chain.size() <= heard_.size()) {
    const auto& [stamp, occurred] = heard_[chain.size() - 1];
    chain.push_back(ReduceGuard(host_->guard_arena(), host_->residuator(),
                                chain.back(),
                                {AnnouncementKind::kOccurred, occurred},
                                cache_));
  }
  return chain[heard_.size()];
}

void EventActor::TruncateFoldChains(size_t idx) {
  // heard_[idx] changed, so folds of prefixes longer than idx are stale;
  // chain[k] covers heard_[0..k), hence entries up to index idx survive.
  if (pos_chain_.size() > idx + 1) pos_chain_.resize(idx + 1);
  if (neg_chain_.size() > idx + 1) neg_chain_.resize(idx + 1);
  for (Obligation& ob : obligations_) {
    if (ob.chain.size() > idx + 1) ob.chain.resize(idx + 1);
  }
}

const Guard* EventActor::CurrentGuard(EventLiteral literal) const {
  size_t slot = literal.complemented() ? 1 : 0;
  if (current_memo_version_[slot] == version_) return current_memo_[slot];
  const Guard* g = HeardResidual(literal);
  for (const auto& [promised, after] : promises_) {
    g = ReduceGuard(host_->guard_arena(), host_->residuator(), g,
                    {AnnouncementKind::kPromised, promised}, cache_);
  }
  g = DischargeDiamonds(g);
  current_memo_[slot] = g;
  current_memo_version_[slot] = version_;
  return g;
}

bool EventActor::Firable(EventLiteral literal, const Guard** reduced) const {
  auto check = [&] {
    *reduced = CurrentGuard(literal);
    return flat_->EvaluateNow(*reduced);
  };
  if (profile_ == nullptr) return check();
  const std::vector<GuardProfile::Share>& shares =
      literal.complemented() ? profile_->negative : profile_->positive;
  if (shares.empty()) return check();
  // One evaluation per site; the first site's sampling stride decides
  // whether this check is wall-timed for all of them.
  obs::GuardProfiler* profiler = profile_->profiler;
  bool sampled = profiler->BeginEvaluation(shares[0].site);
  for (size_t k = 1; k < shares.size(); ++k) {
    profiler->BeginEvaluation(shares[k].site);
  }
  uint64_t t0 = sampled ? obs::ProfilerNowNs() : 0;
  uint64_t steps0 = host_->residuator()->residuate_calls();
  uint64_t nodes0 = host_->guard_arena()->node_count();
  bool permitted = check();
  uint64_t steps = host_->residuator()->residuate_calls() - steps0;
  uint64_t nodes = host_->guard_arena()->node_count() - nodes0;
  uint64_t wall = sampled ? obs::ProfilerNowNs() - t0 : 0;
  // Split by flat-op share; cumulative rounding keeps the per-site parts
  // summing to the check's totals.
  uint64_t total_ops = 0;
  for (const GuardProfile::Share& s : shares) total_ops += s.flat_ops;
  uint64_t ops = 0, steps_done = 0, nodes_done = 0, wall_done = 0;
  for (const GuardProfile::Share& s : shares) {
    ops += s.flat_ops;
    uint64_t steps_to = steps * ops / total_ops;
    uint64_t nodes_to = nodes * ops / total_ops;
    uint64_t wall_to = wall * ops / total_ops;
    profiler->Record(s.site, steps_to - steps_done, nodes_to - nodes_done,
                     wall_to - wall_done, sampled);
    steps_done = steps_to;
    nodes_done = nodes_to;
    wall_done = wall_to;
  }
  return permitted;
}

const Guard* EventActor::DischargeDiamonds(const Guard* g) const {
  if (promises_.empty()) return g;
  switch (g->kind()) {
    case GuardKind::kFalse:
    case GuardKind::kTrue:
    case GuardKind::kBox:
    case GuardKind::kNeg:
      return g;
    case GuardKind::kDiamond: {
      const Expr* e = g->expr();
      // The promised literals that matter: those the residual mentions.
      std::set<EventLiteral> expr_atoms;
      CollectExprAtoms(e, &expr_atoms);
      std::vector<EventLiteral> relevant;
      for (const auto& [promised, after] : promises_) {
        if (expr_atoms.count(promised)) relevant.push_back(promised);
      }
      if (relevant.empty()) return g;
      // Pure sequence fast path (chains of any length): e1·…·ek is
      // guaranteed iff every atom is promised and each step is ordered
      // after its predecessor by the promises' after-sets.
      if (e->kind() == ExprKind::kSeq || e->IsAtom()) {
        std::vector<EventLiteral> seq_atoms;
        bool pure = true;
        if (e->IsAtom()) {
          seq_atoms.push_back(e->literal());
        } else {
          for (const Expr* c : e->children()) {
            if (!c->IsAtom()) {
              pure = false;
              break;
            }
            seq_atoms.push_back(c->literal());
          }
        }
        if (pure) {
          bool guaranteed = true;
          for (size_t i = 0; i < seq_atoms.size() && guaranteed; ++i) {
            auto it = promises_.find(seq_atoms[i]);
            if (it == promises_.end()) {
              guaranteed = false;
              break;
            }
            if (i > 0 && !it->second.count(seq_atoms[i - 1])) {
              guaranteed = false;
            }
          }
          if (guaranteed) return host_->guard_arena()->True();
          return g;
        }
      }
      if (relevant.size() > 6) return g;
      // The real future realizes the promised events in SOME order
      // consistent with their after-sets; E is guaranteed only if every
      // such linearization satisfies it (satisfaction is monotone under
      // inserting unrelated events, so checking the promised events alone
      // is conservative).
      std::sort(relevant.begin(), relevant.end());
      bool any_consistent = false;
      bool all_satisfy = true;
      Trace perm(relevant.begin(), relevant.end());
      do {
        bool consistent = true;
        for (size_t i = 0; i < perm.size() && consistent; ++i) {
          for (EventLiteral before : promises_.at(perm[i])) {
            // An after-constraint on another promised event must be
            // respected within the permutation; constraints on occurred or
            // unknown events do not affect relative order here.
            for (size_t j = i + 1; j < perm.size(); ++j) {
              if (perm[j] == before) {
                consistent = false;
                break;
              }
            }
            if (!consistent) break;
          }
        }
        if (!consistent) continue;
        any_consistent = true;
        if (!Satisfies(perm, e)) {
          all_satisfy = false;
          break;
        }
      } while (std::next_permutation(perm.begin(), perm.end()));
      if (any_consistent && all_satisfy) return host_->guard_arena()->True();
      return g;
    }
    case GuardKind::kAnd:
    case GuardKind::kOr: {
      std::vector<const Guard*> kids;
      kids.reserve(g->children().size());
      for (const Guard* c : g->children()) {
        kids.push_back(DischargeDiamonds(c));
      }
      return g->kind() == GuardKind::kAnd ? host_->guard_arena()->And(kids)
                                          : host_->guard_arena()->Or(kids);
    }
  }
  return g;
}

void EventActor::Attempt(EventLiteral literal, AttemptCallback done) {
  CDES_CHECK_EQ(literal.symbol(), symbol_);
  if (decided_) {
    Answer(literal,
           literal == *decided_ ? Decision::kAccepted : Decision::kRejected,
           done);
    return;
  }
  // One entry per literal: an attempt of a literal already parked (a
  // closure wave re-attempting a scripted complement, a trigger or an
  // obligation for an attempt already waiting) joins that entry, its
  // callback chained behind the first, so each attempt still gets exactly
  // one final decision. Evaluating it again would add nothing: every
  // change of heard_ or promises_ is followed by a Reevaluate of the
  // parked entries.
  auto same = std::find_if(parked_.begin(), parked_.end(),
                           [literal](const Parked& p) {
                             return p.literal == literal;
                           });
  if (same != parked_.end()) {
    if (!done) return;
    done(Decision::kParked);
    if (!same->done) {
      same->done = std::move(done);
    } else {
      same->done = [first = std::move(same->done),
                    second = std::move(done)](Decision d) {
        first(d);
        second(d);
      };
    }
    return;
  }
  const Guard* g = nullptr;
  if (Firable(literal, &g)) {
    Occur(literal);
    Answer(literal, Decision::kAccepted, done);
    return;
  }
  if (g->IsFalse() || !Attrs(literal).delayable) {
    Answer(literal, Refuse(literal), done);
    return;
  }
  if (done) done(Decision::kParked);
  SimTime since = lifecycle_->now();
  uint64_t window = lifecycle_->Park(literal, parked_.size() + 1, site_);
  parked_.push_back(Parked{literal, std::move(done), since, window});
  EmitNeeds(literal, g);
  Reevaluate();
}

Decision EventActor::Refuse(EventLiteral literal) {
  if (Attrs(literal).rejectable) return Decision::kRejected;
  // §3.3: "The scheduler has no choice but to accept nonrejectable events
  // like abort."
  host_->RecordViolation(literal);
  Occur(literal);
  return Decision::kAccepted;
}

void EventActor::Answer(EventLiteral literal, Decision d,
                        const AttemptCallback& done, const Parked* entry) {
  lifecycle_->Decided(literal, d, site_, entry != nullptr ? entry->window : 0);
  lifecycle_->ObserveLatency(entry != nullptr ? entry->since
                                              : lifecycle_->now());
  if (done) done(d);
}

std::vector<EventLiteral> EventActor::ParkedLiterals() const {
  std::vector<EventLiteral> out;
  out.reserve(parked_.size());
  for (const Parked& p : parked_) out.push_back(p.literal);
  return out;
}

void EventActor::RestoreOccurrence(EventLiteral literal) {
  CDES_CHECK_EQ(literal.symbol(), symbol_);
  CDES_CHECK(!decided_);
  CDES_CHECK(parked_.empty()) << "recovery must precede new attempts";
  decided_ = literal;
}

void EventActor::RestoreBaseline(const Guard* positive, const Guard* negative) {
  CDES_CHECK(!decided_ && heard_.empty() && parked_.empty())
      << "baseline restore requires a fresh actor";
  positive_guard_ = positive;
  negative_guard_ = negative;
  // Fold chains anchor at the (replaced) baseline; drop any chain[0]
  // initialized through an earlier introspective CurrentGuard call.
  pos_chain_.clear();
  neg_chain_.clear();
  ++version_;
}

void EventActor::Receive(const RuntimeMessage& msg) {
  switch (msg.kind) {
    case RuntimeMessageKind::kAnnounce: {
      // At-most-once assimilation: a symbol decides at most once, so a
      // second announcement of the same literal (duplicated delivery, or a
      // retransmission racing its ack) must be dropped here — folding it
      // into CurrentGuard again would residuate ◇-sequences by an event
      // that occurred only once, corrupting the reduced guard. A copy
      // carries the occurrence's one stamp, so it finds its original just
      // before its insertion point.
      auto entry = std::make_pair(msg.stamp, msg.literal);
      auto pos = std::upper_bound(heard_.begin(), heard_.end(), entry);
      if (pos != heard_.begin() && *(pos - 1) == entry) return;
      TruncateFoldChains(static_cast<size_t>(pos - heard_.begin()));
      ++version_;
      heard_.insert(pos, entry);
      ReviewObligations();
      Reevaluate();
      return;
    }
    case RuntimeMessageKind::kPromise: {
      std::set<EventLiteral>& after = promises_[msg.literal];
      after.insert(msg.after.begin(), msg.after.end());
      ++version_;
      Reevaluate();
      return;
    }
    case RuntimeMessageKind::kRequestPromise:
      if (decided_) return;  // the announcement (or nothing) answers it
      if (!TryAnswerPromiseRequest(msg)) pending_requests_.push_back(msg);
      return;
    case RuntimeMessageKind::kTrigger:
      Attempt(msg.literal, AttemptCallback());
      return;
  }
}

void EventActor::Occur(EventLiteral literal) {
  CDES_CHECK(!decided_);
  decided_ = literal;
  OccurrenceStamp stamp = host_->NextStamp();
  host_->RecordOccurrence(literal, stamp);
  RuntimeMessage announce{RuntimeMessageKind::kAnnounce, literal, stamp,
                          EventLiteral(), {}, nullptr, {}};
  host_->Broadcast(symbol_, announce);
  // Resolve remaining parked attempts: same literal is (already) accepted,
  // the opposite literal can never occur.
  std::vector<Parked> parked = std::move(parked_);
  parked_.clear();
  for (const Parked& p : parked) {
    Answer(p.literal,
           p.literal == literal ? Decision::kAccepted : Decision::kRejected,
           p.done, &p);
  }
  pending_requests_.clear();
}

void EventActor::Reevaluate() {
  if (reevaluating_) return;
  reevaluating_ = true;
  bool changed = true;
  while (changed && !decided_) {
    changed = false;
    for (size_t i = 0; i < parked_.size(); ++i) {
      const Guard* g = nullptr;
      if (Firable(parked_[i].literal, &g)) {
        Parked p = std::move(parked_[i]);
        parked_.erase(parked_.begin() + i);
        Occur(p.literal);
        Answer(p.literal, Decision::kAccepted, p.done, &p);
        changed = true;
        break;  // decided_: remaining parked resolved by Occur
      }
      if (g->IsFalse()) {
        Parked p = std::move(parked_[i]);
        parked_.erase(parked_.begin() + i);
        Answer(p.literal, Refuse(p.literal), p.done, &p);
        changed = true;
        break;
      }
      EmitNeeds(parked_[i].literal, g);
    }
    if (decided_) break;
    for (size_t i = 0; i < pending_requests_.size(); ++i) {
      if (TryAnswerPromiseRequest(pending_requests_[i])) {
        // A trigger-backed answer can make this actor occur (through
        // ReviewObligations), and Occur already emptied the queue.
        if (!decided_) pending_requests_.erase(pending_requests_.begin() + i);
        changed = true;
        break;
      }
    }
  }
  reevaluating_ = false;
}

void EventActor::EmitNeeds(EventLiteral parked, const Guard* reduced) {
  std::map<EventLiteral, const Expr*> diamond_needs;
  std::set<EventLiteral> box_needs;
  CollectGuardNeeds(reduced, &diamond_needs, &box_needs);
  if (host_->PromisesEnabled()) {
    std::set<EventLiteral> implied_set = ImpliedBoxes(reduced);
    std::vector<EventLiteral> implied(implied_set.begin(),
                                      implied_set.end());
    for (const auto& [need, residual] : diamond_needs) {
      auto key = std::make_pair(need, parked);
      if (requests_sent_.count(key)) continue;
      requests_sent_.insert(key);
      RuntimeMessage request{RuntimeMessageKind::kRequestPromise, need,
                             OccurrenceStamp{}, parked, {}, residual,
                             implied};
      host_->SendTo(symbol_, need.symbol(), request);
    }
  }
  std::set<EventLiteral> trigger_needs = box_needs;
  for (const auto& [need, residual] : diamond_needs) {
    trigger_needs.insert(need);
  }
  for (EventLiteral need : trigger_needs) {
    if (!host_->MayTrigger(need)) continue;
    if (triggers_sent_.count(need)) continue;
    // Trigger only *necessary* events: if the guard could still be
    // discharged were `need` never to occur (hypothetically announce its
    // complement), leave it to the workload — the paper's scheduler causes
    // events "when necessary" (Example 4).
    const Guard* without = ReduceGuard(
        host_->guard_arena(), host_->residuator(), reduced,
        {AnnouncementKind::kOccurred, need.Complemented()}, cache_);
    if (!without->IsFalse()) continue;
    triggers_sent_.insert(need);
    RuntimeMessage trigger{RuntimeMessageKind::kTrigger, need,
                           OccurrenceStamp{}, EventLiteral(), {}, nullptr, {}};
    host_->SendTo(symbol_, need.symbol(), trigger);
  }
}

bool EventActor::TryAnswerPromiseRequest(const RuntimeMessage& request) {
  // We can promise ◇x for our parked attempt x when, once the requester's
  // event has occurred, nothing else blocks x — then x is certain to
  // follow the requester (Example 11's conditional promise: the requester
  // proceeds on the promise, and its occurrence discharges it). The
  // hypothetical must reduce to the constant ⊤: a guard that still rests
  // on ¬-atoms could be invalidated before x fires, breaking the promise.
  for (const Parked& p : parked_) {
    if (p.literal != request.literal) continue;
    auto made = std::make_pair(p.literal, request.requester.symbol());
    if (promises_made_.count(made)) return true;
    const Guard* current = CurrentGuard(p.literal);
    // The requester's occurrence implies its own □-obligations occurred
    // first; assume them (in that order) in the hypothetical.
    const Guard* hypothetical = current;
    for (EventLiteral implied : request.implied) {
      hypothetical =
          ReduceGuard(host_->guard_arena(), host_->residuator(), hypothetical,
                      {AnnouncementKind::kOccurred, implied}, cache_);
    }
    hypothetical = ReduceGuard(
        host_->guard_arena(), host_->residuator(), hypothetical,
        {AnnouncementKind::kOccurred, request.requester}, cache_);
    // Re-apply held promises: the hypothetical occurrences may have
    // residuated a ◇-sequence down to something the promises we already
    // hold can discharge (e.g. ◇(ev2·ev1)/ev2 = ◇ev1 with ◇ev1 in hand).
    for (const auto& [promised, after] : promises_) {
      hypothetical =
          ReduceGuard(host_->guard_arena(), host_->residuator(), hypothetical,
                      {AnnouncementKind::kPromised, promised}, cache_);
    }
    hypothetical = DischargeDiamonds(hypothetical);
    // Optimistic grant (EvaluateNow rather than the constant ⊤): residual
    // ¬-atoms are tolerated because, for synthesized guards, an event that
    // could falsify them is itself ordered after us (the model checker's
    // CL024 ¬-race freedom); residual ◇/□-atoms still block the grant.
    if (!flat_->EvaluateNow(hypothetical)) return false;
    promises_made_.insert(made);
    // The promise carries order guarantees: our □-obligations and the
    // requester necessarily precede our occurrence.
    std::set<EventLiteral> after = ImpliedBoxes(current);
    after.insert(request.requester);
    RuntimeMessage promise{RuntimeMessageKind::kPromise, p.literal,
                           OccurrenceStamp{}, EventLiteral(),
                           std::vector<EventLiteral>(after.begin(),
                                                     after.end()),
                           nullptr,
                           {}};
    host_->SendTo(symbol_, request.requester.symbol(), promise);
    // Forward held promises the requester's residual also depends on, so
    // ordered chains (◇(b·c) at the requester) can discharge.
    if (request.need != nullptr) {
      std::set<EventLiteral> need_atoms;
      CollectExprAtoms(request.need, &need_atoms);
      for (const auto& [held, held_after] : promises_) {
        if (!need_atoms.count(held)) continue;
        RuntimeMessage forward{RuntimeMessageKind::kPromise, held,
                               OccurrenceStamp{}, EventLiteral(),
                               std::vector<EventLiteral>(held_after.begin(),
                                                         held_after.end()),
                               nullptr,
                               {}};
        host_->SendTo(symbol_, request.requester.symbol(), forward);
      }
    }
    return true;
  }
  // Trigger-backed path: a triggerable event the scheduler may cause on
  // its own accord can promise itself, deferring the actual trigger until
  // the requester's residual has no other way to be satisfied (the lazy
  // "when necessary" of Example 4: don't cancel a booking that may yet be
  // paid for).
  if (request.need != nullptr && !request.literal.complemented() &&
      host_->MayTrigger(request.literal)) {
    auto made = std::make_pair(request.literal, request.requester.symbol());
    if (promises_made_.count(made)) return true;
    const Guard* current = CurrentGuard(request.literal);
    const Guard* hypothetical =
        ReduceGuard(host_->guard_arena(), host_->residuator(), current,
                    {AnnouncementKind::kOccurred, request.requester}, cache_);
    if (!hypothetical->IsTrue()) return false;
    std::set<EventLiteral> after = ImpliedBoxes(current);
    after.insert(request.requester);
    promises_made_.insert(made);
    // Adopt the requester's residual as received; ReviewObligations folds
    // the occurrence log into it in stamp order (through the prefix-fold
    // chain — see there for why that is safe where a single stored residual
    // was not).
    obligations_.push_back(Obligation{request.need, request.literal, {}});
    RuntimeMessage promise{RuntimeMessageKind::kPromise, request.literal,
                           OccurrenceStamp{}, EventLiteral(),
                           std::vector<EventLiteral>(after.begin(),
                                                     after.end()),
                           nullptr,
                           {}};
    host_->SendTo(symbol_, request.requester.symbol(), promise);
    ReviewObligations();
    return true;
  }
  return false;
}

void EventActor::ReviewObligations() {
  if (obligations_.empty()) return;
  // Each pass needs the obligation residual folded by the occurrence log in
  // stamp order. Storing a single partially residuated expression and
  // folding only new arrivals into it would be wrong on an unordered
  // network: residuation is order-sensitive ((x·y)/y = 0 by rule 7), so an
  // announcement whose stamp precedes one already folded would corrupt the
  // stored residual permanently. The prefix-fold chain is safe where that
  // shortcut was not because it memoizes per ordered-prefix *position*:
  // chain[k] depends only on the first k stamp-ordered entries, and an
  // out-of-order insertion at index i truncates the chain to i+1 entries
  // (Receive/TruncateFoldChains) before anything past the insertion point
  // is reused — so re-evaluation folds only new arrivals while reproducing
  // the from-scratch stamp-order fold exactly.
  std::vector<Obligation> remaining;
  std::vector<EventLiteral> to_trigger;
  for (Obligation& ob : obligations_) {
    if (ob.chain.empty()) ob.chain.push_back(ob.need);
    while (ob.chain.size() <= heard_.size()) {
      ob.chain.push_back(host_->residuator()->Residuate(
          ob.chain.back(), heard_[ob.chain.size() - 1].second));
    }
    const Expr* residual = ob.chain[heard_.size()];
    if (residual->IsTop()) continue;  // some alternative materialized
    if (decided_) continue;           // our symbol is settled either way
    const Expr* without_us = PruneImpossibleLiteral(
        host_->residuator()->arena(), residual, ob.literal);
    bool necessary = !IsSatisfiable(host_->residuator(), without_us);
    if (necessary) {
      to_trigger.push_back(ob.literal);
    } else {
      remaining.push_back(std::move(ob));
    }
  }
  obligations_ = std::move(remaining);
  // An attempt of a literal already parked joins its entry (see Attempt).
  for (EventLiteral literal : to_trigger) {
    if (decided_) break;
    Attempt(literal, AttemptCallback());
  }
}

}  // namespace cdes
