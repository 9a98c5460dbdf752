#include "temporal/reduction.h"

namespace cdes {
namespace {

const Guard* ReduceOnOccurred(GuardArena* arena, Residuator* residuator,
                              const Guard* g, EventLiteral l) {
  switch (g->kind()) {
    case GuardKind::kFalse:
    case GuardKind::kTrue:
      return g;
    case GuardKind::kBox:
      if (g->literal() == l) return arena->True();
      if (g->literal() == l.Complemented()) return arena->False();
      return g;
    case GuardKind::kNeg:
      if (g->literal() == l) return arena->False();
      if (g->literal() == l.Complemented()) return arena->True();
      return g;
    case GuardKind::kDiamond:
      return arena->Diamond(residuator->Residuate(g->expr(), l));
    case GuardKind::kAnd:
    case GuardKind::kOr: {
      std::vector<const Guard*> kids;
      kids.reserve(g->children().size());
      for (const Guard* c : g->children()) {
        kids.push_back(ReduceOnOccurred(arena, residuator, c, l));
      }
      return g->kind() == GuardKind::kAnd ? arena->And(kids)
                                          : arena->Or(kids);
    }
  }
  return g;
}

const Guard* ReduceOnPromised(GuardArena* arena, const Guard* g,
                              EventLiteral l) {
  switch (g->kind()) {
    case GuardKind::kFalse:
    case GuardKind::kTrue:
      return g;
    case GuardKind::kBox:
      // A promise of ℓ rules ℓ̄ out forever but does not make ℓ occurred.
      if (g->literal() == l.Complemented()) return arena->False();
      return g;
    case GuardKind::kNeg:
      if (g->literal() == l.Complemented()) return arena->True();
      return g;
    case GuardKind::kDiamond: {
      const Expr* e = g->expr();
      if (e->IsAtom() && e->literal() == l) return arena->True();
      // An Or alternative consisting of exactly the promised atom will be
      // satisfied eventually.
      if (e->kind() == ExprKind::kOr) {
        for (const Expr* c : e->children()) {
          if (c->IsAtom() && c->literal() == l) return arena->True();
        }
      }
      // Branches that require ℓ̄ can never be satisfied any more.
      const Expr* pruned =
          PruneImpossibleLiteral(arena->exprs(), e, l.Complemented());
      return arena->Diamond(pruned);
    }
    case GuardKind::kAnd:
    case GuardKind::kOr: {
      std::vector<const Guard*> kids;
      kids.reserve(g->children().size());
      for (const Guard* c : g->children()) {
        kids.push_back(ReduceOnPromised(arena, c, l));
      }
      return g->kind() == GuardKind::kAnd ? arena->And(kids)
                                          : arena->Or(kids);
    }
  }
  return g;
}

/// The memoizing mirror of the two walks above. Composite nodes (◇/+/|)
/// probe the cache before reducing and store after; □/¬/constants are a
/// couple of compares — cheaper than the probe — and are computed inline.
/// Results are bit-identical to the plain walk: both intern through the
/// same arenas and the cache only ever stores the walk's own outputs.
template <bool kPromised>
const Guard* ReduceCached(GuardArena* arena, Residuator* residuator,
                          const Guard* g, EventLiteral l, uint64_t ann,
                          ReductionCache* cache) {
  switch (g->kind()) {
    case GuardKind::kFalse:
    case GuardKind::kTrue:
      return g;
    case GuardKind::kBox:
      if constexpr (kPromised) {
        if (g->literal() == l.Complemented()) return arena->False();
        return g;
      } else {
        if (g->literal() == l) return arena->True();
        if (g->literal() == l.Complemented()) return arena->False();
        return g;
      }
    case GuardKind::kNeg:
      if constexpr (kPromised) {
        if (g->literal() == l.Complemented()) return arena->True();
        return g;
      } else {
        if (g->literal() == l) return arena->False();
        if (g->literal() == l.Complemented()) return arena->True();
        return g;
      }
    case GuardKind::kDiamond:
    case GuardKind::kAnd:
    case GuardKind::kOr:
      break;
  }
  if (const Guard* memo = cache->Find(g, ann)) return memo;
  const Guard* result;
  if (g->kind() == GuardKind::kDiamond) {
    if constexpr (kPromised) {
      result = ReduceOnPromised(arena, g, l);
    } else {
      result = arena->Diamond(residuator->Residuate(g->expr(), l));
    }
  } else {
    std::vector<const Guard*> kids;
    kids.reserve(g->children().size());
    for (const Guard* c : g->children()) {
      kids.push_back(ReduceCached<kPromised>(arena, residuator, c, l, ann,
                                             cache));
    }
    result = g->kind() == GuardKind::kAnd ? arena->And(kids) : arena->Or(kids);
  }
  cache->Store(g, ann, result);
  return result;
}

}  // namespace

const Guard* ReduceGuard(GuardArena* arena, Residuator* residuator,
                         const Guard* g, const Announcement& announcement,
                         ReductionCache* cache) {
  if (cache != nullptr) {
    uint64_t ann = ReductionCache::KeyOf(announcement);
    if (announcement.kind == AnnouncementKind::kOccurred) {
      return ReduceCached<false>(arena, residuator, g, announcement.literal,
                                 ann, cache);
    }
    return ReduceCached<true>(arena, residuator, g, announcement.literal, ann,
                              cache);
  }
  if (announcement.kind == AnnouncementKind::kOccurred) {
    return ReduceOnOccurred(arena, residuator, g, announcement.literal);
  }
  return ReduceOnPromised(arena, g, announcement.literal);
}

const Guard* CommitNow(GuardArena* arena, const Guard* g) {
  switch (g->kind()) {
    case GuardKind::kFalse:
    case GuardKind::kTrue:
    case GuardKind::kDiamond:
      return g;
    case GuardKind::kBox:
      return arena->False();
    case GuardKind::kNeg:
      return arena->True();
    case GuardKind::kAnd:
    case GuardKind::kOr: {
      std::vector<const Guard*> kids;
      kids.reserve(g->children().size());
      for (const Guard* c : g->children()) kids.push_back(CommitNow(arena, c));
      return g->kind() == GuardKind::kAnd ? arena->And(kids)
                                          : arena->Or(kids);
    }
  }
  return g;
}

const Expr* PruneImpossibleLiteral(ExprArena* arena, const Expr* e,
                                   EventLiteral dead) {
  switch (e->kind()) {
    case ExprKind::kZero:
    case ExprKind::kTop:
      return e;
    case ExprKind::kAtom:
      return e->literal() == dead ? arena->Zero() : e;
    case ExprKind::kSeq:
    case ExprKind::kOr:
    case ExprKind::kAnd: {
      std::vector<const Expr*> kids;
      kids.reserve(e->children().size());
      for (const Expr* c : e->children()) {
        kids.push_back(PruneImpossibleLiteral(arena, c, dead));
      }
      switch (e->kind()) {
        case ExprKind::kSeq:
          return arena->Seq(kids);
        case ExprKind::kOr:
          return arena->Or(kids);
        default:
          return arena->And(kids);
      }
    }
  }
  return e;
}

}  // namespace cdes
