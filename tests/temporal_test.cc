#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "algebra/expr.h"
#include "algebra/generator.h"
#include "algebra/residuation.h"
#include "guards/context.h"
#include "temporal/guard.h"
#include "temporal/guard_semantics.h"
#include "temporal/reduction.h"
#include "temporal/simplify.h"
#include "evaluate_now.h"

namespace cdes {
namespace {

class TemporalTest : public ::testing::Test {
 protected:
  TemporalTest() : guards_(&arena_), residuator_(&arena_) {
    e_ = alphabet_.Intern("e");
    f_ = alphabet_.Intern("f");
    g_ = alphabet_.Intern("g");
    pe_ = EventLiteral::Positive(e_);
    ne_ = EventLiteral::Complement(e_);
    pf_ = EventLiteral::Positive(f_);
    nf_ = EventLiteral::Complement(f_);
    pg_ = EventLiteral::Positive(g_);
  }

  const Expr* Atom(EventLiteral l) { return arena_.Atom(l); }

  Alphabet alphabet_;
  ExprArena arena_;
  GuardArena guards_;
  Residuator residuator_;
  SymbolId e_, f_, g_;
  EventLiteral pe_, ne_, pf_, nf_, pg_;
};

// ----------------------------------------------------------- Construction

TEST_F(TemporalTest, GuardHashConsing) {
  EXPECT_EQ(guards_.Box(pe_), guards_.Box(pe_));
  EXPECT_NE(guards_.Box(pe_), guards_.Neg(pe_));
  EXPECT_EQ(guards_.And(guards_.Box(pe_), guards_.Neg(pf_)),
            guards_.And(guards_.Neg(pf_), guards_.Box(pe_)));
}

TEST_F(TemporalTest, DiamondOfConstantsCollapses) {
  EXPECT_EQ(guards_.Diamond(arena_.Top()), guards_.True());
  EXPECT_EQ(guards_.Diamond(arena_.Zero()), guards_.False());
}

TEST_F(TemporalTest, BooleanComplementRules) {
  // Example 8 (e): ¬e + □e = ⊤ and ¬e | □e = 0.
  EXPECT_EQ(guards_.Or(guards_.Neg(pe_), guards_.Box(pe_)), guards_.True());
  EXPECT_EQ(guards_.And(guards_.Neg(pe_), guards_.Box(pe_)), guards_.False());
  // One polarity per trace: □e | □ē = 0.
  EXPECT_EQ(guards_.And(guards_.Box(pe_), guards_.Box(ne_)), guards_.False());
  // ◇e | ◇ē = 0 and ◇e + ◇ē = ⊤ (Example 8 (c), (b)).
  EXPECT_EQ(guards_.And(guards_.Diamond(Atom(pe_)), guards_.Diamond(Atom(ne_))),
            guards_.False());
  EXPECT_EQ(guards_.Or(guards_.Diamond(Atom(pe_)), guards_.Diamond(Atom(ne_))),
            guards_.True());
}

TEST_F(TemporalTest, AndOrIdentities) {
  const Guard* b = guards_.Box(pe_);
  EXPECT_EQ(guards_.And(b, guards_.True()), b);
  EXPECT_EQ(guards_.And(b, guards_.False()), guards_.False());
  EXPECT_EQ(guards_.Or(b, guards_.False()), b);
  EXPECT_EQ(guards_.Or(b, guards_.True()), guards_.True());
  EXPECT_EQ(guards_.And(b, b), b);
}

TEST_F(TemporalTest, GuardSymbolsCollectsDiamondExpr) {
  const Guard* g = guards_.Or(
      guards_.Box(pe_), guards_.Diamond(arena_.Seq(Atom(pf_), Atom(pg_))));
  std::set<SymbolId> symbols = GuardSymbols(g);
  EXPECT_EQ(symbols, (std::set<SymbolId>{e_, f_, g_}));
}

TEST_F(TemporalTest, GuardToString) {
  const Guard* g = guards_.Or(guards_.And(guards_.Box(pe_), guards_.Neg(nf_)),
                              guards_.Diamond(Atom(ne_)));
  std::string s = GuardToString(g, alphabet_);
  EXPECT_NE(s.find("[]e"), std::string::npos);
  EXPECT_NE(s.find("!~f"), std::string::npos);
  EXPECT_NE(s.find("<>(~e)"), std::string::npos);
}

// ------------------------------------------------- Semantics 7-14 checks

TEST_F(TemporalTest, Example7TemporalFacts) {
  // u = <e f g> (maximal over {e,f,g}).
  Trace u = {pe_, pf_, pg_};
  // u ⊨_0 ◇g.
  EXPECT_TRUE(HoldsAt(u, 0, guards_.Diamond(Atom(pg_))));
  // u ⊨_0 ¬e|¬f|¬g.
  const Guard* none = guards_.And(
      guards_.And(guards_.Neg(pe_), guards_.Neg(pf_)), guards_.Neg(pg_));
  EXPECT_TRUE(HoldsAt(u, 0, none));
  EXPECT_FALSE(HoldsAt(u, 1, none));
  // u ⊨_0 ◇(f·g).
  EXPECT_TRUE(HoldsAt(u, 0, guards_.Diamond(arena_.Seq(Atom(pf_), Atom(pg_)))));
  // u ⊨_1 □e|¬f|¬g.
  const Guard* after_e = guards_.And(
      guards_.And(guards_.Box(pe_), guards_.Neg(pf_)), guards_.Neg(pg_));
  EXPECT_TRUE(HoldsAt(u, 1, after_e));
  // u ⊭_1 e·g (coerced expression: prefix <e> does not contain g). The
  // paper lists satisfaction from one index later; with prefix semantics
  // e·g first holds once g has occurred, i.e. at index 3.
  EXPECT_FALSE(HoldsAtExpr(u, 1, arena_.Seq(Atom(pe_), Atom(pg_))));
  EXPECT_FALSE(HoldsAtExpr(u, 2, arena_.Seq(Atom(pe_), Atom(pg_))));
  EXPECT_TRUE(HoldsAtExpr(u, 3, arena_.Seq(Atom(pe_), Atom(pg_))));
}

TEST_F(TemporalTest, Figure3Table) {
  // The ✓-table of Figure 3 over Γ = {e, ē}: rows are operators applied to
  // e/ē, columns are (trace, index) pairs.
  struct Row {
    const Guard* guard;
    bool expect[4];  // (<e>,0) (<e>,1) (<~e>,0) (<~e>,1)
  };
  std::vector<Row> rows = {
      {guards_.Neg(pe_), {true, false, true, true}},
      {guards_.Box(pe_), {false, true, false, false}},
      {guards_.Diamond(Atom(pe_)), {true, true, false, false}},
      {guards_.Neg(ne_), {true, true, true, false}},
      {guards_.Box(ne_), {false, false, false, true}},
      {guards_.Diamond(Atom(ne_)), {false, false, true, true}},
  };
  std::vector<std::pair<Trace, size_t>> points = {
      {{pe_}, 0}, {{pe_}, 1}, {{ne_}, 0}, {{ne_}, 1}};
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < points.size(); ++c) {
      EXPECT_EQ(HoldsAt(points[c].first, points[c].second, rows[r].guard),
                rows[r].expect[c])
          << "row " << r << " column " << c;
    }
  }
}

TEST_F(TemporalTest, Example8Results) {
  // (a) □e + □ē ≠ ⊤.
  const Guard* a = guards_.Or(guards_.Box(pe_), guards_.Box(ne_));
  EXPECT_FALSE(GuardIsValid(a));
  // (b) ◇e + ◇ē = ⊤ — handled at construction, verified semantically too.
  const Guard* b = guards_.Or(guards_.Diamond(Atom(pe_)),
                              guards_.Diamond(Atom(ne_)));
  EXPECT_TRUE(GuardIsValid(b));
  // (c) ◇e | ◇ē = 0.
  EXPECT_TRUE(GuardIsUnsatisfiable(guards_.And(guards_.Diamond(Atom(pe_)),
                                               guards_.Diamond(Atom(ne_)))));
  // (d) ◇e + □ē ≠ ⊤ (initially ē has not happened but e unguaranteed).
  //     Build without the constructor collapsing it.
  const Guard* d = guards_.Or(guards_.Diamond(Atom(pe_)), guards_.Box(ne_));
  EXPECT_FALSE(GuardIsValid(d));
  // (e) ¬e is the boolean complement of □e.
  EXPECT_TRUE(GuardEquivalent(guards_.Neg(pe_),
                              SimplifyGuard(&guards_, guards_.Neg(pe_))));
  EXPECT_TRUE(GuardIsValid(guards_.Or(guards_.Neg(pe_), guards_.Box(pe_))));
  EXPECT_TRUE(GuardIsUnsatisfiable(
      guards_.And(guards_.Neg(pe_), guards_.Box(pe_))));
  // (f) ¬e + □ē = ¬e (□ē entails ¬e).
  const Guard* f = guards_.Or(guards_.Neg(pe_), guards_.Box(ne_));
  EXPECT_TRUE(GuardEquivalent(f, guards_.Neg(pe_)));
  EXPECT_EQ(SimplifyGuard(&guards_, f), guards_.Neg(pe_));
}

TEST_F(TemporalTest, StabilityOfOccurrence) {
  // Semantics 7 validates stability: once satisfied, an event atom stays
  // satisfied at all later indices.
  Trace u = {pf_, pe_, pg_};
  const Guard* box = guards_.Box(pe_);
  bool seen = false;
  for (size_t i = 0; i <= u.size(); ++i) {
    bool holds = HoldsAt(u, i, box);
    if (seen) {
      EXPECT_TRUE(holds);
    }
    seen |= holds;
  }
  EXPECT_TRUE(seen);
}

TEST_F(TemporalTest, GuardStateSpaceSize) {
  GuardTruthTable table({e_, f_});
  // 2^2 · 2! maximal traces × 3 indices, packed into one word.
  EXPECT_EQ(table.traces().size(), 8u);
  EXPECT_EQ(table.point_count(), 24u);
  EXPECT_EQ(table.all(), GuardTruthTable::Vector{(uint64_t{1} << 24) - 1});
  GuardTruthTable empty({});
  EXPECT_EQ(empty.point_count(), 1u);
  EXPECT_EQ(empty.all(), GuardTruthTable::Vector{1});
}

// ---------------------------------------------------------- Simplifier

TEST_F(TemporalTest, SimplifierReachesPaperForms) {
  // (¬f|¬f̄) + □f̄ simplifies to ¬f (the D_< derivation in Example 9.6).
  const Guard* g = guards_.Or(guards_.And(guards_.Neg(pf_), guards_.Neg(nf_)),
                              guards_.Box(nf_));
  EXPECT_EQ(SimplifyGuard(&guards_, g), guards_.Neg(pf_));
}

TEST_F(TemporalTest, SimplifierPreservesSemantics) {
  Rng rng(4242);
  RandomExprOptions options;
  options.symbol_count = 2;
  options.max_depth = 2;
  for (int iter = 0; iter < 40; ++iter) {
    // Random guards: boolean combinations of random atoms.
    std::vector<const Guard*> atoms;
    for (int a = 0; a < 3; ++a) {
      EventLiteral l(static_cast<SymbolId>(rng.Uniform(2)),
                     rng.Bernoulli(0.5));
      switch (rng.Uniform(3)) {
        case 0:
          atoms.push_back(guards_.Box(l));
          break;
        case 1:
          atoms.push_back(guards_.Neg(l));
          break;
        default:
          atoms.push_back(
              guards_.Diamond(GenerateRandomExpr(&arena_, &rng, options)));
      }
    }
    const Guard* g = rng.Bernoulli(0.5)
                         ? guards_.Or(guards_.And(atoms[0], atoms[1]), atoms[2])
                         : guards_.And(guards_.Or(atoms[0], atoms[1]), atoms[2]);
    const Guard* s = SimplifyGuard(&guards_, g);
    EXPECT_TRUE(GuardEquivalent(g, s)) << GuardToString(g, alphabet_)
                                       << " vs " << GuardToString(s, alphabet_);
  }
}

// ----------------------------------------------------- Runtime reduction

TEST_F(TemporalTest, ReduceOnOccurrenceBasics) {
  Announcement occurred_e{AnnouncementKind::kOccurred, pe_};
  EXPECT_EQ(ReduceGuard(&guards_, &residuator_, guards_.Box(pe_), occurred_e),
            guards_.True());
  EXPECT_EQ(ReduceGuard(&guards_, &residuator_, guards_.Neg(pe_), occurred_e),
            guards_.False());
  EXPECT_EQ(ReduceGuard(&guards_, &residuator_, guards_.Box(ne_), occurred_e),
            guards_.False());
  EXPECT_EQ(ReduceGuard(&guards_, &residuator_, guards_.Neg(ne_), occurred_e),
            guards_.True());
  // Unrelated literals untouched.
  EXPECT_EQ(ReduceGuard(&guards_, &residuator_, guards_.Box(pf_), occurred_e),
            guards_.Box(pf_));
}

TEST_F(TemporalTest, ReduceDiamondByResiduation) {
  // ◇(e·f): e occurs → ◇f; then f occurs → ⊤. Out of order: f occurs
  // first → 0.
  const Guard* g = guards_.Diamond(arena_.Seq(Atom(pe_), Atom(pf_)));
  Announcement occ_e{AnnouncementKind::kOccurred, pe_};
  Announcement occ_f{AnnouncementKind::kOccurred, pf_};
  const Guard* after_e = ReduceGuard(&guards_, &residuator_, g, occ_e);
  EXPECT_EQ(after_e, guards_.Diamond(Atom(pf_)));
  EXPECT_EQ(ReduceGuard(&guards_, &residuator_, after_e, occ_f),
            guards_.True());
  EXPECT_EQ(ReduceGuard(&guards_, &residuator_, g, occ_f), guards_.False());
}

TEST_F(TemporalTest, Example10ExecutionByReduction) {
  // Guards from D_<: G(f) = ◇ē + □e. f attempted first: not ⊤, parked.
  // ē occurs; announcement reduces G(f) to ⊤ and f is enabled.
  const Guard* guard_f = guards_.Or(guards_.Diamond(Atom(ne_)),
                                    guards_.Box(pe_));
  EXPECT_FALSE(guard_f->IsTrue());
  Announcement occ_ne{AnnouncementKind::kOccurred, ne_};
  EXPECT_EQ(ReduceGuard(&guards_, &residuator_, guard_f, occ_ne),
            guards_.True());
}

TEST_F(TemporalTest, PromiseReductionRules) {
  Announcement prom_f{AnnouncementKind::kPromised, pf_};
  // ◇f → ⊤ on promise of f (Example 11's consensus mechanism).
  EXPECT_EQ(ReduceGuard(&guards_, &residuator_, guards_.Diamond(Atom(pf_)),
                        prom_f),
            guards_.True());
  // □f and ¬f are unaffected by ◇f (§4.3).
  EXPECT_EQ(ReduceGuard(&guards_, &residuator_, guards_.Box(pf_), prom_f),
            guards_.Box(pf_));
  EXPECT_EQ(ReduceGuard(&guards_, &residuator_, guards_.Neg(pf_), prom_f),
            guards_.Neg(pf_));
  // □f̄ and ◇f̄ die; ¬f̄ becomes ⊤.
  EXPECT_EQ(ReduceGuard(&guards_, &residuator_, guards_.Box(nf_), prom_f),
            guards_.False());
  EXPECT_EQ(ReduceGuard(&guards_, &residuator_, guards_.Diamond(Atom(nf_)),
                        prom_f),
            guards_.False());
  EXPECT_EQ(ReduceGuard(&guards_, &residuator_, guards_.Neg(nf_), prom_f),
            guards_.True());
  // ◇(f + g) → ⊤ when f is promised (an alternative is guaranteed).
  EXPECT_EQ(ReduceGuard(&guards_, &residuator_,
                        guards_.Diamond(arena_.Or(Atom(pf_), Atom(pg_))),
                        prom_f),
            guards_.True());
  // ◇(f̄ + g·f̄) collapses to 0 once f is promised.
  EXPECT_EQ(ReduceGuard(&guards_, &residuator_,
                        guards_.Diamond(arena_.Or(
                            Atom(nf_), arena_.Seq(Atom(pg_), Atom(nf_)))),
                        prom_f),
            guards_.False());
}

TEST_F(TemporalTest, ReductionInOccurrenceOrderMatchesSemantics) {
  // Property: for a guard g and a maximal trace u assimilated in order,
  // the reduced guard is ⊤ exactly when g holds at the end of u... more
  // precisely at each step i the reduced guard evaluated "now" matches
  // HoldsAt(u, i, g) for guards without ¬/□ of future events. We check the
  // weaker but exact invariant: ◇E guards reduce to ⊤/0 exactly per
  // Satisfies(u, E).
  Rng rng(1717);
  RandomExprOptions options;
  options.symbol_count = 3;
  options.max_depth = 3;
  for (int iter = 0; iter < 60; ++iter) {
    const Expr* ex = GenerateRandomExpr(&arena_, &rng, options);
    const Guard* g = guards_.Diamond(ex);
    for (const Trace& u : EnumerateMaximalTraces(3)) {
      const Guard* cur = g;
      for (EventLiteral l : u) {
        cur = ReduceGuard(&guards_, &residuator_, cur,
                          {AnnouncementKind::kOccurred, l});
      }
      EXPECT_EQ(cur->IsTrue(), Satisfies(u, ex));
      EXPECT_EQ(cur->IsFalse(), !Satisfies(u, ex));
    }
  }
}

TEST_F(TemporalTest, PruneImpossibleLiteral) {
  const Expr* e = arena_.Or(arena_.Seq(Atom(pe_), Atom(pf_)), Atom(ne_));
  EXPECT_EQ(PruneImpossibleLiteral(&arena_, e, ne_),
            arena_.Seq(Atom(pe_), Atom(pf_)));
  EXPECT_EQ(PruneImpossibleLiteral(&arena_, e, pf_), Atom(ne_));
  EXPECT_EQ(PruneImpossibleLiteral(&arena_, Atom(pe_), pe_), arena_.Zero());
  EXPECT_EQ(PruneImpossibleLiteral(&arena_, e, pg_), e);
}

// ------------------------------------------------- Packed truth tables

// A random guard over symbols {0..k-1}, k >= 1: the conjunction of
// Definition 2's guards for one literal under one or two random
// dependencies (random expressions, chains and ordered-if-all families
// over random symbol subsets), or a random And/Or nest of □ℓ, ¬ℓ, ◇E and
// such synthesized guards. Constants are redrawn, up to 20 times.
const Guard* RandomGuardOver(WorkflowContext* ctx, Rng* rng, size_t k) {
  RandomExprOptions options;
  options.symbol_count = k;
  options.max_depth = 3;
  options.constant_probability = 0;
  auto literal = [&] {
    return EventLiteral(static_cast<SymbolId>(rng->Uniform(k)),
                        rng->Bernoulli(0.5));
  };
  auto dependency = [&]() -> const Expr* {
    std::vector<SymbolId> subset;
    for (SymbolId s = 0; s < k; ++s) {
      if (rng->Bernoulli(0.7)) {
        subset.insert(subset.begin() + rng->Uniform(subset.size() + 1), s);
      }
    }
    switch (subset.size() < 2 ? 0 : rng->Uniform(3)) {
      case 0:
        return GenerateRandomExpr(ctx->exprs(), rng, options);
      case 1:
        return Chain(ctx->exprs(), subset);
      default:
        return OrderedIfAll(ctx->exprs(), subset);
    }
  };
  auto synthesized = [&] {
    const Expr* d = dependency();
    std::set<SymbolId> mentioned = MentionedSymbols(d);
    EventLiteral e = literal();
    if (!mentioned.empty()) {
      auto it = mentioned.begin();
      std::advance(it, rng->Uniform(mentioned.size()));
      e = EventLiteral(*it, rng->Bernoulli(0.5));
    }
    const Guard* g = ctx->synthesizer()->Synthesize(d, e);
    return rng->Bernoulli(0.5)
               ? g
               : ctx->guards()->And(
                     g, ctx->synthesizer()->Synthesize(dependency(), e));
  };
  std::function<const Guard*(int)> draw = [&](int depth) -> const Guard* {
    switch (rng->Uniform(depth == 0 ? 4 : 6)) {
      case 0:
        return ctx->guards()->Box(literal());
      case 1:
        return ctx->guards()->Neg(literal());
      case 2:
        return ctx->guards()->Diamond(
            GenerateRandomExpr(ctx->exprs(), rng, options));
      case 3:
        return synthesized();
      default: {
        std::vector<const Guard*> kids;
        for (size_t n = 2 + rng->Uniform(2); n > 0; --n) {
          kids.push_back(draw(depth - 1));
        }
        return rng->Bernoulli(0.5) ? ctx->guards()->And(kids)
                                   : ctx->guards()->Or(kids);
      }
    }
  };
  // Redraw constants (a third of the draws), which test nothing.
  const Guard* g = nullptr;
  for (int tries = 0; tries < 20; ++tries) {
    g = rng->Bernoulli(0.5) ? synthesized() : draw(2);
    if (!g->IsTrue() && !g->IsFalse()) break;
  }
  return g;
}

// Differential check of the packed evaluator against the per-point
// reference: for random guards and their children, the bit of (trace t,
// index i) is HoldsAt(trace t, i), and the bits past the last point are
// zero.
TEST(GuardTruthTableTest, PackedBitsMatchHoldsAt) {
  WorkflowContext ctx;
  Rng rng(2024);
  size_t checked_points = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const size_t k = 1 + iter % 5;
    const Guard* g = RandomGuardOver(&ctx, &rng, k);
    GuardTruthTable table(GuardSymbols(g));
    std::vector<const Guard*> nodes = {g};
    nodes.insert(nodes.end(), g->children().begin(), g->children().end());
    for (const Guard* node : nodes) {
      const GuardTruthTable::Vector& v = table.Truth(node);
      ASSERT_EQ(v.size(), table.all().size());
      for (size_t t = 0; t < table.traces().size(); ++t) {
        const Trace& u = table.traces()[t];
        for (size_t i = 0; i <= u.size(); ++i) {
          const size_t p = t * table.points_per_trace() + i;
          ASSERT_EQ(GuardTruthTable::Bit(v, p), HoldsAt(u, i, node))
              << GuardToString(node, *ctx.alphabet()) << " at trace " << t
              << ", index " << i;
          ++checked_points;
        }
      }
      for (size_t p = table.point_count(); p < 64 * v.size(); ++p) {
        ASSERT_FALSE(GuardTruthTable::Bit(v, p)) << "padding bit " << p;
      }
    }
  }
  EXPECT_GT(checked_points, 100000u);
}

// The firability verdict the arena stores when it interns a node equals
// the recursive reference walk on every node of the same random guards,
// whose construction flattens ∧/∨, merges ◇-siblings and absorbs
// constants.
TEST(GuardVerdictTest, PermitsNowMatchesRecursiveWalk) {
  WorkflowContext ctx;
  Rng rng(2024);
  std::unordered_set<const Guard*> seen;
  size_t permitted = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const Guard* g = RandomGuardOver(&ctx, &rng, 1 + iter % 5);
    std::vector<const Guard*> stack = {g};
    while (!stack.empty()) {
      const Guard* node = stack.back();
      stack.pop_back();
      if (!seen.insert(node).second) continue;
      ASSERT_EQ(node->PermitsNow(), EvaluateNow(node))
          << GuardToString(node, *ctx.alphabet());
      permitted += node->PermitsNow();
      stack.insert(stack.end(), node->children().begin(),
                   node->children().end());
    }
  }
  // Both verdicts occur often, so the comparison is not vacuous.
  EXPECT_GT(permitted, 100u);
  EXPECT_GT(seen.size() - permitted, 100u);
}

// Pins what the simplifier and the exact predicates decide for random
// guards: the simplified guard's text, GuardIsValid, GuardIsUnsatisfiable,
// GuardEquivalent against the previous guard, and the arena's node count
// after each call (so the order in which simplification creates nodes is
// pinned too). A change to the evaluator that keeps compiled guards must
// keep this constant; one meant to change them re-pins it from this test
// built against the parent.
TEST(SimplifyDigestTest, RandomGuardsMatchPinnedDigest) {
  WorkflowContext ctx;
  for (const char* name : {"a", "b", "c", "d", "e"}) {
    ctx.alphabet()->Intern(name);
  }
  uint64_t digest = 0xcbf29ce484222325ULL;
  auto mix = [&digest](std::string_view text) {
    for (char c : text) {
      digest ^= static_cast<unsigned char>(c);
      digest *= 0x100000001B3ULL;
    }
    digest ^= 0xFF;
    digest *= 0x100000001B3ULL;
  };
  Rng rng(9901);
  const Guard* previous = ctx.guards()->True();
  size_t rewritten = 0;
  for (int iter = 0; iter < 2500; ++iter) {
    const size_t k = 1 + iter % 5;
    const Guard* g = RandomGuardOver(&ctx, &rng, k);
    const Guard* s = SimplifyGuard(ctx.guards(), g);
    if (s != g) ++rewritten;
    mix(GuardToString(g, *ctx.alphabet()));
    mix(GuardToString(s, *ctx.alphabet()));
    mix(GuardIsValid(g) ? "valid" : "-");
    mix(GuardIsUnsatisfiable(g) ? "unsat" : "-");
    mix(GuardEquivalent(g, previous) ? "equiv" : "-");
    mix(std::to_string(ctx.guards()->node_count()));
    previous = g;
  }
  // The simplifier rewrites most guards, so the digest is not vacuous.
  EXPECT_GT(rewritten, 500u);
  EXPECT_EQ(digest, 1178818600880873551ULL) << "digest " << digest;
}

}  // namespace
}  // namespace cdes
