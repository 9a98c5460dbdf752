// End-to-end soundness properties tying the runtime machinery to the
// trace semantics:
//
//   (conservativeness)  if the runtime's reduced guard licenses occurrence
//       now (PermitsNow after assimilating a prefix), then the guard
//       truly holds at that index of any maximal extension — the runtime
//       never fires early;
//   (completeness-at-end)  once every event of a maximal trace has been
//       assimilated, the reduced guard's PermitsNow coincides exactly
//       with HoldsAt — no information is lost by reduction;
//   (arena identities)  the constructor-level rewrites (◇-merge in Or,
//       exhaustive/contradictory atom pairs) are semantic identities;
//   (simplifier)  SimplifyGuard is idempotent and equivalence-preserving.

#include <gtest/gtest.h>

#include <vector>

#include "algebra/generator.h"
#include "guards/context.h"
#include "temporal/guard_needs.h"
#include "temporal/guard_semantics.h"
#include "temporal/reduction.h"
#include "temporal/simplify.h"

namespace cdes {
namespace {

// Draws a random guard over `symbol_count` symbols.
const Guard* RandomGuard(WorkflowContext* ctx, Rng* rng, size_t symbol_count) {
  RandomExprOptions options;
  options.symbol_count = symbol_count;
  options.max_depth = 2;
  auto atom = [&]() -> const Guard* {
    EventLiteral l(static_cast<SymbolId>(rng->Uniform(symbol_count)),
                   rng->Bernoulli(0.5));
    switch (rng->Uniform(3)) {
      case 0:
        return ctx->guards()->Box(l);
      case 1:
        return ctx->guards()->Neg(l);
      default:
        return ctx->guards()->Diamond(
            GenerateRandomExpr(ctx->exprs(), rng, options));
    }
  };
  const Guard* a = atom();
  const Guard* b = atom();
  const Guard* c = atom();
  return rng->Bernoulli(0.5)
             ? ctx->guards()->Or(ctx->guards()->And(a, b), c)
             : ctx->guards()->And(ctx->guards()->Or(a, b), c);
}

class SoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SoundnessTest, RuntimeReductionIsConservative) {
  WorkflowContext ctx;
  Rng rng(GetParam());
  const size_t kSymbols = 3;
  for (int iter = 0; iter < 30; ++iter) {
    const Guard* g = RandomGuard(&ctx, &rng, kSymbols);
    for (const Trace& u : EnumerateMaximalTraces(kSymbols)) {
      const Guard* reduced = g;
      for (size_t i = 0; i <= u.size(); ++i) {
        // If the runtime would fire here, the semantics must agree on
        // this maximal extension.
        if (reduced->PermitsNow()) {
          EXPECT_TRUE(HoldsAt(u, i, g))
              << GuardToString(g, *ctx.alphabet()) << " fired early at "
              << i << " on " << TraceToString(u, *ctx.alphabet());
        }
        if (i < u.size()) {
          reduced = ReduceGuard(ctx.guards(), ctx.residuator(), reduced,
                                {AnnouncementKind::kOccurred, u[i]});
        }
      }
      // Completeness at the end of the maximal trace.
      EXPECT_EQ(reduced->PermitsNow(), HoldsAt(u, u.size(), g))
          << GuardToString(g, *ctx.alphabet()) << " at end of "
          << TraceToString(u, *ctx.alphabet());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoundnessTest,
                         ::testing::Values(1001, 1002, 1003, 1004),
                         ::testing::PrintToStringParamName());

TEST(GuardArenaIdentityTest, DiamondMergePreservesSemantics) {
  WorkflowContext ctx;
  Rng rng(77);
  RandomExprOptions options;
  options.symbol_count = 3;
  options.max_depth = 2;
  for (int iter = 0; iter < 60; ++iter) {
    const Expr* e1 = GenerateRandomExpr(ctx.exprs(), &rng, options);
    const Expr* e2 = GenerateRandomExpr(ctx.exprs(), &rng, options);
    // The arena merges ◇e1 + ◇e2 into ◇(e1+e2); both must be equivalent
    // to the unmerged semantics evaluated directly.
    const Guard* merged =
        ctx.guards()->Or(ctx.guards()->Diamond(e1), ctx.guards()->Diamond(e2));
    // Evaluate the would-be-unmerged form point by point.
    std::set<SymbolId> symbols = MentionedSymbols(e1);
    std::set<SymbolId> s2 = MentionedSymbols(e2);
    symbols.insert(s2.begin(), s2.end());
    GuardTruthTable table(symbols);
    for (const Trace& u : table.traces()) {
      bool unmerged = Satisfies(u, e1) || Satisfies(u, e2);
      for (size_t i = 0; i <= u.size(); ++i) {
        EXPECT_EQ(HoldsAt(u, i, merged), unmerged)
            << ExprToString(e1, *ctx.alphabet()) << " / "
            << ExprToString(e2, *ctx.alphabet());
      }
    }
  }
}

TEST(GuardArenaIdentityTest, DiamondOfBothPolaritiesIsTop) {
  WorkflowContext ctx;
  SymbolId e = ctx.alphabet()->Intern("e");
  SymbolId f = ctx.alphabet()->Intern("f");
  const Expr* parts[] = {
      ctx.exprs()->Atom(EventLiteral::Positive(e)),
      ctx.exprs()->Atom(EventLiteral::Complement(e)),
      ctx.exprs()->Seq(ctx.exprs()->Atom(EventLiteral::Positive(f)),
                       ctx.exprs()->Atom(EventLiteral::Positive(e)))};
  EXPECT_EQ(ctx.guards()->Diamond(ctx.exprs()->Or(parts)),
            ctx.guards()->True());
}

TEST(SimplifierPropertyTest, IdempotentAndEquivalent) {
  WorkflowContext ctx;
  Rng rng(4321);
  for (int iter = 0; iter < 40; ++iter) {
    const Guard* g = RandomGuard(&ctx, &rng, 2);
    const Guard* once = SimplifyGuard(ctx.guards(), g);
    EXPECT_TRUE(GuardEquivalent(g, once));
    const Guard* twice = SimplifyGuard(ctx.guards(), once);
    EXPECT_EQ(once, twice) << GuardToString(g, *ctx.alphabet());
  }
}

TEST(SimplifierPropertyTest, NeverGrows) {
  WorkflowContext ctx;
  Rng rng(999);
  auto node_count = [](const Guard* g) {
    struct Rec {
      static size_t Count(const Guard* n) {
        size_t total = 1;
        for (const Guard* c : n->children()) total += Count(c);
        return total;
      }
    };
    return Rec::Count(g);
  };
  for (int iter = 0; iter < 40; ++iter) {
    const Guard* g = RandomGuard(&ctx, &rng, 2);
    const Guard* s = SimplifyGuard(ctx.guards(), g);
    EXPECT_LE(node_count(s), node_count(g))
        << GuardToString(g, *ctx.alphabet()) << " -> "
        << GuardToString(s, *ctx.alphabet());
  }
}

TEST(ImpliedBoxesTest, ConjunctionUnionsDisjunctionIntersects) {
  WorkflowContext ctx;
  SymbolId a = ctx.alphabet()->Intern("a");
  SymbolId b = ctx.alphabet()->Intern("b");
  SymbolId c = ctx.alphabet()->Intern("c");
  EventLiteral pa = EventLiteral::Positive(a);
  EventLiteral pb = EventLiteral::Positive(b);
  EventLiteral pc = EventLiteral::Positive(c);
  GuardArena* g = ctx.guards();
  // And(□a, □b, ¬c) implies {a, b}.
  const Guard* conj = g->And(g->And(g->Box(pa), g->Box(pb)), g->Neg(pc));
  EXPECT_EQ(ImpliedBoxes(conj), (std::set<EventLiteral>{pa, pb}));
  // Or(□a|□b, □a|◇c) implies only the common {a}.
  const Guard* disj = g->Or(g->And(g->Box(pa), g->Box(pb)),
                            g->And(g->Box(pa),
                                   g->Diamond(ctx.exprs()->Atom(pc))));
  EXPECT_EQ(ImpliedBoxes(disj), (std::set<EventLiteral>{pa}));
  // A disjunct with no boxes clears the set.
  const Guard* mixed = g->Or(g->Box(pa), g->Neg(pb));
  EXPECT_TRUE(ImpliedBoxes(mixed).empty());
  EXPECT_TRUE(ImpliedBoxes(g->True()).empty());
}

TEST(ReductionPropertyTest, UnrelatedAnnouncementsAreSemanticNoOps) {
  // Announcements about symbols a guard does not mention never change its
  // meaning (reduction may normalize ◇-expressions, so compare
  // semantically rather than by node identity).
  WorkflowContext ctx;
  Rng rng(2468);
  for (int iter = 0; iter < 40; ++iter) {
    const Guard* g = RandomGuard(&ctx, &rng, 2);
    EventLiteral unrelated(static_cast<SymbolId>(7 + iter % 3),
                           rng.Bernoulli(0.5));
    const Guard* occurred = ReduceGuard(ctx.guards(), ctx.residuator(), g,
                                        {AnnouncementKind::kOccurred,
                                         unrelated});
    EXPECT_TRUE(GuardEquivalent(occurred, g));
    const Guard* promised = ReduceGuard(ctx.guards(), ctx.residuator(), g,
                                        {AnnouncementKind::kPromised,
                                         unrelated});
    EXPECT_TRUE(GuardEquivalent(promised, g));
    // On an already-normalized guard the reduction is the identity.
    EXPECT_EQ(ReduceGuard(ctx.guards(), ctx.residuator(), occurred,
                          {AnnouncementKind::kOccurred, unrelated}),
              occurred);
  }
}

}  // namespace
}  // namespace cdes
