#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "algebra/generator.h"
#include "guards/context.h"
#include "common/strings.h"
#include "guards/workflow.h"
#include "spec/parser.h"
#include "temporal/guard_semantics.h"
#include "temporal/simplify.h"

namespace cdes {
namespace {

class GuardsTest : public ::testing::Test {
 protected:
  GuardsTest() {
    e_ = ctx_.alphabet()->Intern("e");
    f_ = ctx_.alphabet()->Intern("f");
    pe_ = EventLiteral::Positive(e_);
    ne_ = EventLiteral::Complement(e_);
    pf_ = EventLiteral::Positive(f_);
    nf_ = EventLiteral::Complement(f_);
  }

  const Expr* Atom(EventLiteral l) { return ctx_.exprs()->Atom(l); }
  const Guard* Synth(const Expr* d, EventLiteral l) {
    return ctx_.synthesizer()->SynthesizeSimplified(d, l);
  }

  WorkflowContext ctx_;
  SymbolId e_, f_;
  EventLiteral pe_, ne_, pf_, nf_;
};

// ----------------------------------------------------- Example 9, 1 to 8

TEST_F(GuardsTest, Example9Item1TopYieldsTop) {
  EXPECT_EQ(ctx_.synthesizer()->Synthesize(ctx_.exprs()->Top(), pe_),
            ctx_.guards()->True());
}

TEST_F(GuardsTest, Example9Item2ZeroYieldsZero) {
  EXPECT_EQ(ctx_.synthesizer()->Synthesize(ctx_.exprs()->Zero(), pe_),
            ctx_.guards()->False());
}

TEST_F(GuardsTest, Example9Item3OwnAtomYieldsTop) {
  EXPECT_EQ(ctx_.synthesizer()->Synthesize(Atom(pe_), pe_),
            ctx_.guards()->True());
}

TEST_F(GuardsTest, Example9Item4ComplementAtomYieldsZero) {
  EXPECT_EQ(ctx_.synthesizer()->Synthesize(Atom(ne_), pe_),
            ctx_.guards()->False());
}

TEST_F(GuardsTest, Example9Item5GuardOfNotEUnderPrecedes) {
  // G(D_<, ē) = ⊤: the complement of e may occur at any time.
  const Expr* d = KleinPrecedes(ctx_.exprs(), e_, f_);
  EXPECT_EQ(Synth(d, ne_), ctx_.guards()->True());
}

TEST_F(GuardsTest, Example9Item6GuardOfEUnderPrecedes) {
  // G(D_<, e) = ¬f: e may occur while f has not yet occurred.
  const Expr* d = KleinPrecedes(ctx_.exprs(), e_, f_);
  EXPECT_EQ(Synth(d, pe_), ctx_.guards()->Neg(pf_));
}

TEST_F(GuardsTest, Example9Item7GuardOfNotFUnderPrecedes) {
  const Expr* d = KleinPrecedes(ctx_.exprs(), e_, f_);
  EXPECT_EQ(Synth(d, nf_), ctx_.guards()->True());
}

TEST_F(GuardsTest, Example9Item8GuardOfFUnderPrecedes) {
  // G(D_<, f) = ◇ē + □e: f may occur once e has occurred or ē is
  // guaranteed.
  const Expr* d = KleinPrecedes(ctx_.exprs(), e_, f_);
  const Guard* expected = ctx_.guards()->Or(
      ctx_.guards()->Diamond(Atom(ne_)), ctx_.guards()->Box(pe_));
  EXPECT_EQ(Synth(d, pf_), expected);
}

TEST_F(GuardsTest, Example11MutualDiamondGuards) {
  // D_→ = ē + f gives e the guard ◇f; the transpose f̄ + e gives f the
  // guard ◇e — the circular-promise situation of Example 11.
  const Expr* d = KleinImplies(ctx_.exprs(), e_, f_);
  EXPECT_EQ(Synth(d, pe_), ctx_.guards()->Diamond(Atom(pf_)));
  const Expr* transpose = KleinImplies(ctx_.exprs(), f_, e_);
  EXPECT_EQ(Synth(transpose, pf_), ctx_.guards()->Diamond(Atom(pe_)));
  // The complements are unconstrained by their own dependency.
  EXPECT_EQ(Synth(d, ne_), ctx_.guards()->True());
  EXPECT_EQ(Synth(d, pf_), ctx_.guards()->True());
}

// ----------------------------------------------- Theorems 2, 4; Lemmas 3, 5

TEST_F(GuardsTest, Theorem2GuardOfDisjointChoiceDistributes) {
  SymbolId g = ctx_.alphabet()->Intern("g");
  SymbolId h = ctx_.alphabet()->Intern("h");
  const Expr* d1 = KleinPrecedes(ctx_.exprs(), e_, f_);
  const Expr* d2 = KleinImplies(ctx_.exprs(), g, h);
  const Expr* combined = ctx_.exprs()->Or(d1, d2);
  for (EventLiteral l : {pe_, pf_, ne_, nf_}) {
    const Guard* lhs = ctx_.synthesizer()->Synthesize(combined, l);
    const Guard* rhs = ctx_.guards()->Or(
        ctx_.synthesizer()->Synthesize(d1, l),
        ctx_.synthesizer()->Synthesize(d2, l));
    EXPECT_TRUE(GuardEquivalent(lhs, rhs));
  }
}

TEST_F(GuardsTest, Theorem4GuardOfDisjointConjunctionDistributes) {
  SymbolId g = ctx_.alphabet()->Intern("g");
  SymbolId h = ctx_.alphabet()->Intern("h");
  const Expr* d1 = KleinPrecedes(ctx_.exprs(), e_, f_);
  const Expr* d2 = KleinPrecedes(ctx_.exprs(), g, h);
  const Expr* combined = ctx_.exprs()->And(d1, d2);
  for (EventLiteral l :
       {pe_, pf_, EventLiteral::Positive(g), EventLiteral::Positive(h)}) {
    const Guard* lhs = ctx_.synthesizer()->Synthesize(combined, l);
    const Guard* rhs = ctx_.guards()->And(
        ctx_.synthesizer()->Synthesize(d1, l),
        ctx_.synthesizer()->Synthesize(d2, l));
    EXPECT_TRUE(GuardEquivalent(lhs, rhs));
  }
}

TEST_F(GuardsTest, Lemma3CaseSplitOnUnrelatedEvent) {
  // G(D, e) = ¬g|G(D, e) + □g|G(D/g, e) for any g ∉ {e, ē}.
  const Expr* d = KleinPrecedes(ctx_.exprs(), e_, f_);
  for (EventLiteral g : {pf_, nf_}) {
    const Guard* lhs = ctx_.synthesizer()->Synthesize(d, pe_);
    const Guard* rhs = ctx_.guards()->Or(
        ctx_.guards()->And(ctx_.guards()->Neg(g), lhs),
        ctx_.guards()->And(
            ctx_.guards()->Box(g),
            ctx_.synthesizer()->Synthesize(
                ctx_.residuator()->Residuate(d, g), pe_)));
    EXPECT_TRUE(GuardEquivalent(lhs, rhs));
  }
}

TEST_F(GuardsTest, Lemma5PathSumMatchesDefinition2) {
  // Over random small dependencies, Definition 2 and the Π(D) path sum
  // produce semantically identical guards.
  Rng rng(808);
  RandomExprOptions options;
  options.symbol_count = 2;
  options.max_depth = 3;
  for (int iter = 0; iter < 40; ++iter) {
    const Expr* d = GenerateRandomExpr(ctx_.exprs(), &rng, options);
    // Lemma 5 concerns events on some path of Π(D): literals whose symbol
    // survives normalization.
    for (SymbolId s : MentionedSymbols(ctx_.residuator()->NormalForm(d))) {
      for (EventLiteral l :
           {EventLiteral::Positive(s), EventLiteral::Complement(s)}) {
        const Guard* def2 = ctx_.synthesizer()->Synthesize(d, l);
        const Guard* paths = ctx_.synthesizer()->SynthesizeViaPaths(d, l);
        EXPECT_TRUE(GuardEquivalent(def2, paths))
            << ExprToString(d, *ctx_.alphabet()) << " at literal "
            << ctx_.alphabet()->LiteralName(l);
      }
    }
  }
}

TEST_F(GuardsTest, PathGuardShape) {
  // G(e1·e2·e3, e2) = □e1 | ¬e3 | ◇e3.
  SymbolId g = ctx_.alphabet()->Intern("g");
  Trace path = {pe_, pf_, EventLiteral::Positive(g)};
  const Guard* pg = ctx_.synthesizer()->PathGuard(path, 1);
  const Guard* expected = ctx_.guards()->And(
      ctx_.guards()->And(ctx_.guards()->Box(pe_),
                         ctx_.guards()->Neg(EventLiteral::Positive(g))),
      ctx_.guards()->Diamond(Atom(EventLiteral::Positive(g))));
  EXPECT_EQ(pg, expected);
}

// ---------------------------------------------------- Workflow compilation

TEST_F(GuardsTest, CompiledWorkflowConjoinsMentioningDependencies) {
  WorkflowSpec spec;
  spec.Add("prec", KleinPrecedes(ctx_.exprs(), e_, f_));
  spec.Add("impl", KleinImplies(ctx_.exprs(), e_, f_));
  CompiledWorkflow cw = CompileWorkflow(&ctx_, spec);
  // Guard on e: ¬f (from D_<) conjoined with ◇f (from D_→).
  const Guard* expected = ctx_.guards()->And(
      ctx_.guards()->Neg(pf_), ctx_.guards()->Diamond(Atom(pf_)));
  EXPECT_EQ(cw.GuardFor(pe_), expected);
  EXPECT_EQ(cw.ContributionsFor(pe_).size(), 2u);
  // Unmentioned literals default to ⊤.
  SymbolId z = ctx_.alphabet()->Intern("z");
  EXPECT_EQ(cw.GuardFor(EventLiteral::Positive(z)), ctx_.guards()->True());
  EXPECT_TRUE(cw.ContributionsFor(EventLiteral::Positive(z)).empty());
}

TEST_F(GuardsTest, TravelWorkflowCommitOrderGuard) {
  // Example 4's dependency (2): c̄_buy + c_book·c_buy localizes the guard
  // □c_book on c_buy — buy commits only after book committed.
  SymbolId c_buy = ctx_.alphabet()->Intern("c_buy");
  SymbolId c_book = ctx_.alphabet()->Intern("c_book");
  const Expr* d2 = ctx_.exprs()->Or(
      Atom(EventLiteral::Complement(c_buy)),
      ctx_.exprs()->Seq(Atom(EventLiteral::Positive(c_book)),
                        Atom(EventLiteral::Positive(c_buy))));
  EXPECT_EQ(Synth(d2, EventLiteral::Positive(c_buy)),
            ctx_.guards()->Box(EventLiteral::Positive(c_book)));
  // c_book may commit as long as c_buy has not yet committed (committing
  // afterwards could not restore the required order).
  EXPECT_EQ(Synth(d2, EventLiteral::Positive(c_book)),
            ctx_.guards()->Neg(EventLiteral::Positive(c_buy)));
}

TEST_F(GuardsTest, GeneratesMatchesDefinition4) {
  WorkflowSpec spec;
  spec.Add("prec", KleinPrecedes(ctx_.exprs(), e_, f_));
  CompiledWorkflow cw = CompileWorkflow(&ctx_, spec);
  EXPECT_TRUE(cw.Generates({pe_, pf_}));
  EXPECT_FALSE(cw.Generates({pf_, pe_}));  // f blocked before e decided
  EXPECT_TRUE(cw.Generates({ne_, pf_}));
  EXPECT_TRUE(cw.Generates({nf_, pe_}));
}

// ------------------------------------------------ Subscriptions (§4.3)

// The brute-force relation: every other symbol t whose guards (either
// polarity) mention s, in ascending order.
std::vector<SymbolId> BruteForceSubscribers(const CompiledWorkflow& cw,
                                            SymbolId s) {
  std::vector<SymbolId> out;
  for (SymbolId t : cw.symbols()) {
    if (t == s) continue;
    std::set<SymbolId> mentioned =
        GuardSymbols(cw.GuardFor(EventLiteral::Positive(t)));
    std::set<SymbolId> negative =
        GuardSymbols(cw.GuardFor(EventLiteral::Complement(t)));
    mentioned.insert(negative.begin(), negative.end());
    if (mentioned.count(s)) out.push_back(t);
  }
  return out;
}

TEST(SubscribersTest, TravelWorkflowWiring) {
  std::ifstream in(CDES_SOURCE_DIR "/examples/specs/travel.wf");
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  WorkflowContext ctx;
  auto parsed = ParseWorkflow(&ctx, text.str(), "travel.wf");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  CompiledWorkflow cw = CompileWorkflow(&ctx, parsed.value().spec);
  const Alphabet& alphabet = *ctx.alphabet();
  auto subscribers = [&](const char* name) {
    std::vector<std::string> out;
    for (SymbolId t : cw.SubscribersOf(alphabet.Find(name))) {
      out.push_back(alphabet.Name(t));
    }
    return out;
  };
  // G(s_buy) = ◇s_book, G(¬s_book) = ◇¬s_buy, G(c_buy) = □c_book,
  // G(¬c_buy) = ◇(¬c_book + s_cancel), G(c_book) = ¬c_buy | ◇(c_buy +
  // s_cancel), G(¬c_book) = ◇¬c_buy, G(¬s_cancel) = ◇(c_buy + ¬c_book);
  // symbols ascend in declaration order.
  using Names = std::vector<std::string>;
  EXPECT_EQ(subscribers("s_buy"), Names({"s_book"}));
  EXPECT_EQ(subscribers("c_buy"), Names({"c_book", "s_cancel"}));
  EXPECT_EQ(subscribers("s_book"), Names({"s_buy"}));
  EXPECT_EQ(subscribers("c_book"), Names({"c_buy", "s_cancel"}));
  EXPECT_EQ(subscribers("s_cancel"), Names({"c_buy", "c_book"}));
  for (SymbolId s : cw.symbols()) {
    EXPECT_EQ(cw.SubscribersOf(s), BruteForceSubscribers(cw, s));
  }
  // A symbol the workflow does not mention has no subscribers.
  EXPECT_TRUE(cw.SubscribersOf(ctx.alphabet()->Intern("elsewhere")).empty());
}

TEST(SubscribersTest, MatchesBruteForceOnRandomSpecs) {
  // The random dependencies the checker and cache property tests draw
  // (no constants, depth 3, arity 3), compiled with and without
  // simplification.
  RandomExprOptions options;
  options.max_depth = 3;
  options.max_arity = 3;
  options.constant_probability = 0.0;
  size_t nonempty = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    options.symbol_count = 2 + seed % 4;
    for (bool simplify : {true, false}) {
      WorkflowContext ctx;
      WorkflowSpec spec;
      for (size_t d = 0; d < 1 + seed % 3; ++d) {
        spec.Add(StrCat("d", d),
                 GenerateRandomExpr(ctx.exprs(), &rng, options));
      }
      CompiledWorkflow cw =
          CompileWorkflow(&ctx, spec, CompileOptions{.simplify = simplify});
      for (SymbolId s = 0; s < options.symbol_count; ++s) {
        EXPECT_EQ(cw.SubscribersOf(s), BruteForceSubscribers(cw, s))
            << "seed " << seed << " symbol " << s;
        nonempty += !cw.SubscribersOf(s).empty();
      }
    }
  }
  EXPECT_GT(nonempty, 50u);  // the sweep exercises real wiring (87 lists)
}

// --------------------------------------------------- Theorem 6 (property)

struct Theorem6Param {
  uint64_t seed;
  size_t symbol_count;
  size_t dependency_count;
  bool simplify;
};

class Theorem6Test : public ::testing::TestWithParam<Theorem6Param> {};

TEST_P(Theorem6Test, GeneratesIffSatisfiesAllDependencies) {
  const Theorem6Param param = GetParam();
  Rng rng(param.seed);
  RandomExprOptions options;
  options.symbol_count = param.symbol_count;
  options.max_depth = 3;
  for (int iter = 0; iter < 15; ++iter) {
    WorkflowContext ctx;
    WorkflowSpec spec;
    for (size_t d = 0; d < param.dependency_count; ++d) {
      spec.Add(StrCat("d", d), GenerateRandomExpr(ctx.exprs(), &rng, options));
    }
    CompileOptions copts;
    copts.simplify = param.simplify;
    CompiledWorkflow cw = CompileWorkflow(&ctx, spec, copts);
    // Theorem 6 quantifies over maximal traces on the full alphabet.
    for (const Trace& u : EnumerateMaximalTraces(param.symbol_count)) {
      EXPECT_EQ(cw.Generates(u), SatisfiesAll(spec, u))
          << "iter " << iter << " trace index";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem6Test,
    ::testing::Values(Theorem6Param{11, 2, 1, false},
                      Theorem6Param{12, 2, 2, false},
                      Theorem6Param{13, 3, 1, false},
                      Theorem6Param{14, 3, 2, false},
                      Theorem6Param{15, 3, 3, false},
                      Theorem6Param{16, 2, 2, true},
                      Theorem6Param{17, 3, 2, true}),
    [](const ::testing::TestParamInfo<Theorem6Param>& info) {
      const Theorem6Param& p = info.param;
      return StrCat("seed", p.seed, "_symbols", p.symbol_count, "_deps",
                    p.dependency_count, p.simplify ? "_simplified" : "_raw");
    });

TEST_F(GuardsTest, SynthesisCacheGrowsAndIsReused) {
  const Expr* d = KleinPrecedes(ctx_.exprs(), e_, f_);
  ctx_.synthesizer()->Synthesize(d, pe_);
  size_t after_first = ctx_.synthesizer()->cache_size();
  EXPECT_GT(after_first, 0u);
  ctx_.synthesizer()->Synthesize(d, pe_);
  EXPECT_EQ(ctx_.synthesizer()->cache_size(), after_first);
}

}  // namespace
}  // namespace cdes
