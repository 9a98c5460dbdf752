#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "algebra/event.h"
#include "algebra/expr.h"
#include "algebra/generator.h"
#include "algebra/residuation.h"
#include "algebra/semantics.h"
#include "algebra/trace.h"
#include "common/rng.h"
#include "common/strings.h"

namespace cdes {
namespace {

class ResiduationTest : public ::testing::Test {
 protected:
  ResiduationTest() : residuator_(&arena_) {
    e_ = alphabet_.Intern("e");
    f_ = alphabet_.Intern("f");
    pe_ = EventLiteral::Positive(e_);
    ne_ = EventLiteral::Complement(e_);
    pf_ = EventLiteral::Positive(f_);
    nf_ = EventLiteral::Complement(f_);
  }

  const Expr* Atom(EventLiteral l) { return arena_.Atom(l); }

  Alphabet alphabet_;
  ExprArena arena_;
  Residuator residuator_;
  SymbolId e_, f_;
  EventLiteral pe_, ne_, pf_, nf_;
};

// ------------------------------------------------------------ Normal form

TEST_F(ResiduationTest, NormalFormDistributesOrOutOfSeq) {
  // e·(f + f̄) becomes e·f + e·f̄.
  const Expr* in =
      arena_.Seq(Atom(pe_), arena_.Or(Atom(pf_), Atom(nf_)));
  const Expr* nf = residuator_.NormalForm(in);
  const Expr* expected = arena_.Or(arena_.Seq(Atom(pe_), Atom(pf_)),
                                   arena_.Seq(Atom(pe_), Atom(nf_)));
  EXPECT_EQ(nf, expected);
  EXPECT_TRUE(ExprEquivalent(in, nf));
}

TEST_F(ResiduationTest, NormalFormDistributesAndOutOfSeq) {
  SymbolId g = alphabet_.Intern("g");
  EventLiteral pg = EventLiteral::Positive(g);
  const Expr* in =
      arena_.Seq(arena_.And(Atom(pe_), Atom(pf_)), Atom(pg));
  const Expr* nf = residuator_.NormalForm(in);
  const Expr* expected = arena_.And(arena_.Seq(Atom(pe_), Atom(pg)),
                                    arena_.Seq(Atom(pf_), Atom(pg)));
  EXPECT_EQ(nf, expected);
  EXPECT_TRUE(ExprEquivalent(in, nf));
}

TEST_F(ResiduationTest, NormalFormIsSemanticIdentityOnRandomExprs) {
  RandomExprOptions options;
  options.symbol_count = 3;
  options.max_depth = 3;
  Rng rng(2024);
  for (int i = 0; i < 60; ++i) {
    const Expr* ex = GenerateRandomExpr(&arena_, &rng, options);
    const Expr* nf = residuator_.NormalForm(ex);
    EXPECT_TRUE(ExprEquivalent(ex, nf, /*extra_symbols=*/0))
        << "iteration " << i;
  }
}

TEST_F(ResiduationTest, NormalFormHasNoChoiceUnderSeq) {
  RandomExprOptions options;
  options.symbol_count = 3;
  Rng rng(99);
  auto no_choice_under_seq = [](const Expr* ex) {
    struct Rec {
      static bool Check(const Expr* n, bool under_seq) {
        if (under_seq &&
            (n->kind() == ExprKind::kOr || n->kind() == ExprKind::kAnd)) {
          return false;
        }
        bool next_under = under_seq || n->kind() == ExprKind::kSeq;
        for (const Expr* c : n->children()) {
          if (!Check(c, next_under)) return false;
        }
        return true;
      }
    };
    return Rec::Check(ex, false);
  };
  for (int i = 0; i < 100; ++i) {
    const Expr* nf =
        residuator_.NormalForm(GenerateRandomExpr(&arena_, &rng, options));
    EXPECT_TRUE(no_choice_under_seq(nf));
  }
}

// ------------------------------------------------------------- Rule checks

TEST_F(ResiduationTest, ConstantRules) {
  EXPECT_EQ(residuator_.Residuate(arena_.Zero(), pe_), arena_.Zero());
  EXPECT_EQ(residuator_.Residuate(arena_.Top(), pe_), arena_.Top());
}

TEST_F(ResiduationTest, AtomRules) {
  EXPECT_EQ(residuator_.Residuate(Atom(pe_), pe_), arena_.Top());
  EXPECT_EQ(residuator_.Residuate(Atom(ne_), pe_), arena_.Zero());
  EXPECT_EQ(residuator_.Residuate(Atom(pf_), pe_), Atom(pf_));
}

TEST_F(ResiduationTest, SequenceRules) {
  const Expr* ef = arena_.Seq(Atom(pe_), Atom(pf_));
  // Rule 3: head consumed.
  EXPECT_EQ(residuator_.Residuate(ef, pe_), Atom(pf_));
  // Rule 7: f requires e first.
  EXPECT_EQ(residuator_.Residuate(ef, pf_), arena_.Zero());
  // Rule 8: complement of a mentioned event kills the sequence.
  EXPECT_EQ(residuator_.Residuate(ef, ne_), arena_.Zero());
  EXPECT_EQ(residuator_.Residuate(ef, nf_), arena_.Zero());
  // Rule 6: unrelated event leaves it alone.
  SymbolId g = alphabet_.Intern("g");
  EXPECT_EQ(residuator_.Residuate(ef, EventLiteral::Positive(g)), ef);
}

TEST_F(ResiduationTest, Example6FigureTwoTransitions) {
  // (ē + f̄ + e·f)/e = f̄ + f, and (ē + f)/f̄ = ē.
  const Expr* d_prec = KleinPrecedes(&arena_, e_, f_);
  const Expr* after_e = residuator_.Residuate(d_prec, pe_);
  EXPECT_EQ(after_e, arena_.Or(Atom(nf_), Atom(pf_)));

  const Expr* d_impl = KleinImplies(&arena_, e_, f_);
  EXPECT_EQ(residuator_.Residuate(d_impl, nf_), Atom(ne_));
}

TEST_F(ResiduationTest, FigureTwoFullMachineForPrecedes) {
  // Figure 2 (left): D_< has transitions
  //   D --ē--> ⊤, D --f̄--> ⊤, D --e--> (f̄+f), D --f--> ē,
  //   (f̄+f) --f--> ⊤, (f̄+f) --f̄--> ⊤, ē --ē--> ⊤.
  const Expr* d = KleinPrecedes(&arena_, e_, f_);
  EXPECT_EQ(residuator_.Residuate(d, ne_), arena_.Top());
  EXPECT_EQ(residuator_.Residuate(d, nf_), arena_.Top());
  const Expr* fe = residuator_.Residuate(d, pe_);
  EXPECT_EQ(fe, arena_.Or(Atom(pf_), Atom(nf_)));
  const Expr* eb = residuator_.Residuate(d, pf_);
  EXPECT_EQ(eb, Atom(ne_));
  EXPECT_EQ(residuator_.Residuate(fe, pf_), arena_.Top());
  EXPECT_EQ(residuator_.Residuate(fe, nf_), arena_.Top());
  EXPECT_EQ(residuator_.Residuate(eb, ne_), arena_.Top());
  // After f, e can no longer be permitted: residual ē maps e to 0.
  EXPECT_EQ(residuator_.Residuate(eb, pe_), arena_.Zero());
}

TEST_F(ResiduationTest, FigureTwoFullMachineForImplies) {
  // Figure 2 (right): D_→ = ē + f; ē or f satisfy immediately, e first
  // requires f afterwards, f̄ first requires ē afterwards.
  const Expr* d = KleinImplies(&arena_, e_, f_);
  EXPECT_EQ(residuator_.Residuate(d, ne_), arena_.Top());
  EXPECT_EQ(residuator_.Residuate(d, pf_), arena_.Top());
  EXPECT_EQ(residuator_.Residuate(d, pe_), Atom(pf_));
  EXPECT_EQ(residuator_.Residuate(d, nf_), Atom(ne_));
}

TEST_F(ResiduationTest, ResiduateTraceChainsInOrder) {
  const Expr* d = KleinPrecedes(&arena_, e_, f_);
  EXPECT_EQ(residuator_.ResiduateTrace(d, {pe_, pf_}), arena_.Top());
  EXPECT_EQ(residuator_.ResiduateTrace(d, {pf_, pe_}), arena_.Zero());
  EXPECT_EQ(residuator_.ResiduateTrace(d, {}), d);
}

// ------------------------------------------- Theorem 1 (soundness) property

struct Theorem1Param {
  uint64_t seed;
  size_t symbol_count;
  size_t max_depth;
};

class Theorem1Test : public ::testing::TestWithParam<Theorem1Param> {};

TEST_P(Theorem1Test, SymbolicMatchesModelTheoreticResiduation) {
  const Theorem1Param param = GetParam();
  ExprArena arena;
  Residuator residuator(&arena);
  Rng rng(param.seed);
  RandomExprOptions options;
  options.symbol_count = param.symbol_count;
  options.max_depth = param.max_depth;

  for (int iter = 0; iter < 40; ++iter) {
    const Expr* ex = GenerateRandomExpr(&arena, &rng, options);
    std::vector<EventLiteral> lits;
    for (SymbolId s = 0; s < param.symbol_count; ++s) {
      lits.push_back(EventLiteral::Positive(s));
      lits.push_back(EventLiteral::Complement(s));
    }
    std::vector<Trace> universe = EnumerateUniverse(lits);
    for (EventLiteral x : lits) {
      const Expr* symbolic = residuator.Residuate(ex, x);
      std::vector<bool> oracle = ResiduateModelTheoretic(ex, x, universe);
      for (size_t vi = 0; vi < universe.size(); ++vi) {
        // The model-theoretic quotient is compared on continuations that
        // are consistent with x having just occurred (the scheduler never
        // sees a symbol twice on one computation).
        const Trace& v = universe[vi];
        bool mentions_x = false;
        for (EventLiteral l : v) mentions_x |= (l.symbol() == x.symbol());
        if (mentions_x) continue;
        EXPECT_EQ(Satisfies(v, symbolic), oracle[vi])
            << "iter " << iter << " residuating by literal index "
            << x.index() << " on continuation index " << vi;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem1Test,
    ::testing::Values(Theorem1Param{1, 2, 2}, Theorem1Param{2, 2, 3},
                      Theorem1Param{3, 3, 2}, Theorem1Param{4, 3, 3},
                      Theorem1Param{5, 2, 4}),
    [](const ::testing::TestParamInfo<Theorem1Param>& info) {
      const Theorem1Param& p = info.param;
      return StrCat("seed", p.seed, "_symbols", p.symbol_count, "_depth",
                    p.max_depth);
    });

// ---------------------------------------------- Chained-residual property

TEST_F(ResiduationTest, TraceSatisfiesIffChainedResidualIsTop) {
  // u ⊨ D ⟺ ((D/u1)/…)/un = ⊤ — the identity behind Definition 3 and the
  // residuation scheduler. Exhaustive over expressions and the universe.
  RandomExprOptions options;
  options.symbol_count = 3;
  options.max_depth = 3;
  Rng rng(555);
  std::vector<EventLiteral> lits;
  for (SymbolId s = 0; s < 3; ++s) {
    lits.push_back(EventLiteral::Positive(s));
    lits.push_back(EventLiteral::Complement(s));
  }
  std::vector<Trace> universe = EnumerateUniverse(lits);
  for (int iter = 0; iter < 40; ++iter) {
    const Expr* ex = GenerateRandomExpr(&arena_, &rng, options);
    for (const Trace& u : universe) {
      bool sat = Satisfies(u, ex);
      bool residual_top = residuator_.ResiduateTrace(ex, u)->IsTop();
      EXPECT_EQ(sat, residual_top)
          << ExprToString(ex, alphabet_) << " on "
          << TraceToString(u, alphabet_);
    }
  }
}

// ------------------------------------------------------- Residual graphs

TEST_F(ResiduationTest, ResidualGraphOfPrecedesMatchesFigure2) {
  const Expr* d = KleinPrecedes(&arena_, e_, f_);
  ResidualGraph graph = BuildResidualGraph(&residuator_, d);
  // States: D, ⊤, f̄+f, ē, 0 (0 is reachable from ē by e).
  EXPECT_EQ(graph.states.size(), 5u);
  EXPECT_NE(graph.IndexOf(arena_.Top()), static_cast<size_t>(-1));
  EXPECT_NE(graph.IndexOf(arena_.Zero()), static_cast<size_t>(-1));
  EXPECT_NE(graph.IndexOf(arena_.Or(Atom(pf_), Atom(nf_))),
            static_cast<size_t>(-1));
  EXPECT_NE(graph.IndexOf(Atom(ne_)), static_cast<size_t>(-1));
  // Terminal states have no out-edges; the initial state has 4.
  size_t initial_edges = 0;
  for (const auto& [key, to] : graph.edges) {
    if (key.first == 0) ++initial_edges;
  }
  EXPECT_EQ(initial_edges, 4u);
}

TEST_F(ResiduationTest, ResidualGraphOfImpliesMatchesFigure2) {
  const Expr* d = KleinImplies(&arena_, e_, f_);
  ResidualGraph graph = BuildResidualGraph(&residuator_, d);
  // States: D, ⊤, f (after e), ē (after f̄), 0 (from f /f̄ or ē /e).
  EXPECT_EQ(graph.states.size(), 5u);
  size_t top = graph.IndexOf(arena_.Top());
  ASSERT_NE(top, static_cast<size_t>(-1));
  EXPECT_EQ(graph.edges.at({0, ne_}), top);
  EXPECT_EQ(graph.edges.at({0, pf_}), top);
  EXPECT_EQ(graph.edges.at({0, pe_}), graph.IndexOf(Atom(pf_)));
  EXPECT_EQ(graph.edges.at({0, nf_}), graph.IndexOf(Atom(ne_)));
}

TEST_F(ResiduationTest, SatisfiabilityMatchesBruteForce) {
  RandomExprOptions options;
  options.symbol_count = 3;
  options.max_depth = 3;
  Rng rng(777);
  std::vector<EventLiteral> lits;
  for (SymbolId s = 0; s < 3; ++s) {
    lits.push_back(EventLiteral::Positive(s));
    lits.push_back(EventLiteral::Complement(s));
  }
  std::vector<Trace> universe = EnumerateUniverse(lits);
  for (int iter = 0; iter < 60; ++iter) {
    const Expr* ex = GenerateRandomExpr(&arena_, &rng, options);
    bool brute = false;
    for (const Trace& u : universe) brute |= Satisfies(u, ex);
    EXPECT_EQ(IsSatisfiable(&residuator_, ex), brute)
        << ExprToString(ex, alphabet_);
  }
}

TEST_F(ResiduationTest, UnsatisfiableConjunction) {
  const Expr* contradiction = arena_.And(Atom(pe_), Atom(ne_));
  EXPECT_FALSE(IsSatisfiable(&residuator_, contradiction));
  // e|(f·e) forces f before e and e; satisfiable via <f e>.
  const Expr* ordered = arena_.And(Atom(pe_), arena_.Seq(Atom(pf_), Atom(pe_)));
  EXPECT_TRUE(IsSatisfiable(&residuator_, ordered));
}

// ------------------------------------------------------------- Π(D) paths

TEST_F(ResiduationTest, PathsOfPrecedes) {
  const Expr* d = KleinPrecedes(&arena_, e_, f_);
  std::vector<Trace> paths = EnumeratePaths(&residuator_, d);
  std::set<std::string> rendered;
  for (const Trace& p : paths) rendered.insert(TraceToString(p, alphabet_));
  // Minimal satisfying paths and their ⊤-preserving extensions.
  EXPECT_TRUE(rendered.count("<~e>"));
  EXPECT_TRUE(rendered.count("<~f>"));
  EXPECT_TRUE(rendered.count("<e f>"));
  EXPECT_TRUE(rendered.count("<e ~f>"));
  EXPECT_TRUE(rendered.count("<f ~e>"));
  EXPECT_FALSE(rendered.count("<f e>"));  // violates the order
  EXPECT_FALSE(rendered.count("<e>"));    // not yet ⊤ (f undecided)
  // Every enumerated path indeed satisfies D (Definition 3).
  for (const Trace& p : paths) EXPECT_TRUE(Satisfies(p, d));
}

TEST_F(ResiduationTest, PathsAreExactlySatisfyingGammaTraces) {
  // Over the symbols of D, Π(D) coincides with the satisfying traces.
  RandomExprOptions options;
  options.symbol_count = 2;
  options.max_depth = 3;
  Rng rng(31337);
  for (int iter = 0; iter < 50; ++iter) {
    const Expr* ex = GenerateRandomExpr(&arena_, &rng, options);
    std::vector<EventLiteral> lits;
    for (SymbolId s : MentionedSymbols(ex)) {
      lits.push_back(EventLiteral::Positive(s));
      lits.push_back(EventLiteral::Complement(s));
    }
    std::set<std::string> expected;
    for (const Trace& u : EnumerateUniverse(lits)) {
      if (Satisfies(u, ex)) expected.insert(TraceToString(u, alphabet_));
    }
    std::set<std::string> actual;
    for (const Trace& p : EnumeratePaths(&residuator_, ex)) {
      actual.insert(TraceToString(p, alphabet_));
    }
    EXPECT_EQ(actual, expected) << ExprToString(ex, alphabet_);
  }
}

TEST_F(ResiduationTest, ResidualGraphDotExport) {
  const Expr* d = KleinPrecedes(&arena_, e_, f_);
  ResidualGraph graph = BuildResidualGraph(&residuator_, d);
  std::string dot = ResidualGraphToDot(graph, alphabet_, "D_less");
  EXPECT_NE(dot.find("digraph \"D_less\""), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);  // the ⊤ state
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // the 0 state
  // One node line per state, one edge line per transition.
  size_t edges = 0;
  for (size_t pos = dot.find("->"); pos != std::string::npos;
       pos = dot.find("->", pos + 1)) {
    ++edges;
  }
  EXPECT_EQ(edges, graph.edges.size());
}

TEST_F(ResiduationTest, PathCapRespected) {
  SymbolId g = alphabet_.Intern("g");
  SymbolId h = alphabet_.Intern("h");
  const Expr* top_dep = OrderedIfAll(&arena_, {e_, f_, g, h});
  std::vector<Trace> paths = EnumeratePaths(&residuator_, top_dep, 10);
  EXPECT_LE(paths.size(), 10u);
}

}  // namespace
}  // namespace cdes
