// Schedule-space verification of the guard discipline by the exhaustive
// reachability checker (analysis/model_checker.h), with partial-order
// reduction off so that every interleaving a distributed execution could
// produce is explored: no guard-admitted prefix violates a dependency
// (CL023) and no two optimistically enabled events race on ¬ (CL024).

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "algebra/generator.h"
#include "analysis/model_checker.h"
#include "common/strings.h"
#include "spec/ast.h"

namespace cdes {

/// Test-only access to a compiled guard table: lets a test hand the checker
/// a guard the synthesis would never produce.
class CompiledWorkflowTestPeer {
 public:
  static void SetGuard(CompiledWorkflow* compiled, EventLiteral literal,
                       const Guard* guard) {
    compiled->guards_[literal] = guard;
  }
};

namespace {

using analysis::CheckCompiled;
using analysis::CheckResult;
using analysis::Diagnostic;
using analysis::ModelCheckOptions;
using analysis::Rule;

ParsedWorkflow Workflow(const WorkflowSpec& spec) {
  ParsedWorkflow w;
  w.name = "w";
  w.spec = spec;
  return w;
}

CheckResult CheckUnreduced(WorkflowContext* ctx, const ParsedWorkflow& w,
                           const CompiledWorkflow& compiled) {
  ModelCheckOptions options;
  options.partial_order_reduction = false;
  return CheckCompiled(ctx, w, compiled, options);
}

::testing::AssertionResult Verified(WorkflowContext* ctx,
                                    const WorkflowSpec& spec) {
  CompiledWorkflow compiled = CompileWorkflow(ctx, spec);
  // Nothing is ever enabled; the empty space is trivially safe.
  if (compiled.impossible()) return ::testing::AssertionSuccess();
  CheckResult result = CheckUnreduced(ctx, Workflow(spec), compiled);
  if (result.stats.bounded) {
    return ::testing::AssertionFailure() << result.stats.bound_reason;
  }
  for (const Diagnostic& d : result.diagnostics) {
    if (d.rule == Rule::kGuardSpecMismatch || d.rule == Rule::kNegationRace) {
      return ::testing::AssertionFailure()
             << analysis::FormatDiagnostics(result.diagnostics);
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ScheduleSpaceTest, CanonicalDependencies) {
  struct Case {
    const char* name;
    std::function<const Expr*(WorkflowContext*)> make;
  };
  std::vector<Case> cases = {
      {"precedes",
       [](WorkflowContext* ctx) {
         return KleinPrecedes(ctx->exprs(), ctx->alphabet()->Intern("e"),
                              ctx->alphabet()->Intern("f"));
       }},
      {"implies",
       [](WorkflowContext* ctx) {
         return KleinImplies(ctx->exprs(), ctx->alphabet()->Intern("e"),
                             ctx->alphabet()->Intern("f"));
       }},
      {"chain3",
       [](WorkflowContext* ctx) {
         return Chain(ctx->exprs(), {ctx->alphabet()->Intern("a"),
                                     ctx->alphabet()->Intern("b"),
                                     ctx->alphabet()->Intern("c")});
       }},
      {"either-order",
       [](WorkflowContext* ctx) {
         SymbolId e = ctx->alphabet()->Intern("e");
         SymbolId f = ctx->alphabet()->Intern("f");
         const Expr* parts[] = {
             ctx->exprs()->Atom(EventLiteral::Complement(e)),
             ctx->exprs()->Atom(EventLiteral::Complement(f)),
             ctx->exprs()->Seq(ctx->exprs()->Atom(EventLiteral::Positive(e)),
                               ctx->exprs()->Atom(EventLiteral::Positive(f))),
             ctx->exprs()->Seq(ctx->exprs()->Atom(EventLiteral::Positive(f)),
                               ctx->exprs()->Atom(EventLiteral::Positive(e)))};
         return ctx->exprs()->Or(parts);
       }},
      {"ordered-if-all-3",
       [](WorkflowContext* ctx) {
         return OrderedIfAll(ctx->exprs(), {ctx->alphabet()->Intern("a"),
                                            ctx->alphabet()->Intern("b"),
                                            ctx->alphabet()->Intern("c")});
       }},
  };
  for (const Case& c : cases) {
    WorkflowContext ctx;
    WorkflowSpec spec;
    spec.Add(c.name, c.make(&ctx));
    EXPECT_TRUE(Verified(&ctx, spec)) << c.name;
  }
}

TEST(ScheduleSpaceTest, TravelWorkflowFullSpace) {
  WorkflowContext ctx;
  WorkflowSpec spec;
  SymbolId s_buy = ctx.alphabet()->Intern("s_buy");
  SymbolId c_buy = ctx.alphabet()->Intern("c_buy");
  SymbolId s_book = ctx.alphabet()->Intern("s_book");
  SymbolId c_book = ctx.alphabet()->Intern("c_book");
  SymbolId s_cancel = ctx.alphabet()->Intern("s_cancel");
  auto atom = [&](SymbolId s, bool complemented = false) {
    return ctx.exprs()->Atom(EventLiteral(s, complemented));
  };
  spec.Add("d1", ctx.exprs()->Or(atom(s_buy, true), atom(s_book)));
  spec.Add("d2", ctx.exprs()->Or(atom(c_buy, true),
                                 ctx.exprs()->Seq(atom(c_book),
                                                  atom(c_buy))));
  const Expr* d3_parts[] = {atom(c_book, true), atom(c_buy), atom(s_cancel)};
  spec.Add("d3", ctx.exprs()->Or(d3_parts));
  EXPECT_TRUE(Verified(&ctx, spec));
}

TEST(ScheduleSpaceTest, ReportsStatesExplored) {
  WorkflowContext ctx;
  WorkflowSpec spec;
  spec.Add("d", KleinPrecedes(ctx.exprs(), ctx.alphabet()->Intern("e"),
                              ctx.alphabet()->Intern("f")));
  CheckResult result =
      CheckUnreduced(&ctx, Workflow(spec), CompileWorkflow(&ctx, spec));
  EXPECT_FALSE(result.stats.bounded) << result.stats.bound_reason;
  EXPECT_TRUE(result.diagnostics.empty())
      << analysis::FormatDiagnostics(result.diagnostics);
  // States over 2 symbols: more than the maximal ones, and every maximal
  // state the exploration reaches is generated by the guards.
  EXPECT_GT(result.stats.states_explored, result.stats.maximal_states);
  EXPECT_GT(result.stats.accepted_states, 0u);
}

TEST(ScheduleSpaceTest, ImpossibleWorkflowTriviallySafe) {
  WorkflowContext ctx;
  WorkflowSpec spec;
  spec.Add("never", ctx.exprs()->Zero());
  CheckResult result = analysis::CheckWorkflow(&ctx, Workflow(spec));
  // CL001 is the static analyzer's finding; the checker explores nothing
  // and says so instead of claiming an exhaustive run.
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_TRUE(result.stats.bounded);
  EXPECT_NE(result.stats.bound_reason.find("CL001"), std::string::npos)
      << result.stats.bound_reason;
  EXPECT_EQ(result.stats.states_explored, 0u);
}

// e < f with G(f) forced to ⊤: at the initial state both e (guard ¬f) and
// f are optimistically enabled, and f then e violates the dependency. The
// guards never admit that order (G(e)/f = 0), so CL020–CL023 stay silent;
// only the ¬-race rule sees it.
TEST(ScheduleSpaceTest, LiberalGuardRacesOnNegation) {
  WorkflowContext ctx;
  SymbolId e = ctx.alphabet()->Intern("e");
  SymbolId f = ctx.alphabet()->Intern("f");
  WorkflowSpec spec;
  spec.Add("order", KleinPrecedes(ctx.exprs(), e, f));
  CompiledWorkflow compiled = CompileWorkflow(&ctx, spec);
  ASSERT_TRUE(Verified(&ctx, spec));
  CompiledWorkflowTestPeer::SetGuard(&compiled, EventLiteral::Positive(f),
                                     ctx.guards()->True());

  CheckResult result = CheckUnreduced(&ctx, Workflow(spec), compiled);
  EXPECT_FALSE(result.stats.bounded) << result.stats.bound_reason;
  ASSERT_EQ(result.diagnostics.size(), 1u)
      << analysis::FormatDiagnostics(result.diagnostics);
  const Diagnostic& d = result.diagnostics[0];
  EXPECT_EQ(d.rule, Rule::kNegationRace);
  EXPECT_EQ(analysis::RuleCode(d.rule), "CL024");
  EXPECT_NE(d.message.find("at the initial state"), std::string::npos)
      << d.message;
  EXPECT_NE(d.message.find("'order'"), std::string::npos) << d.message;
  ASSERT_EQ(d.trace.size(), 2u);
  EXPECT_EQ(d.trace[0].literal, "f");
  EXPECT_EQ(d.trace[1].literal, "e");
}

// ~e with G(e) forced to ⊤: the guards admit <e>, which violates the
// dependency with nothing pending. CL023 fires once, at that earliest
// witness; the generated computations below it (e then f or ~f) are not
// reported again.
TEST(ScheduleSpaceTest, LiberalGuardReportsEarliestWitness) {
  WorkflowContext ctx;
  SymbolId e = ctx.alphabet()->Intern("e");
  SymbolId f = ctx.alphabet()->Intern("f");
  ExprArena* exprs = ctx.exprs();
  WorkflowSpec spec;
  spec.Add("never_e", exprs->Atom(EventLiteral::Complement(e)));
  spec.Add("some_f", exprs->Or(exprs->Atom(EventLiteral::Positive(f)),
                               exprs->Atom(EventLiteral::Complement(f))));
  CompiledWorkflow compiled = CompileWorkflow(&ctx, spec);
  CompiledWorkflowTestPeer::SetGuard(&compiled, EventLiteral::Positive(e),
                                     ctx.guards()->True());

  CheckResult result = CheckUnreduced(&ctx, Workflow(spec), compiled);
  EXPECT_FALSE(result.stats.bounded) << result.stats.bound_reason;
  std::vector<const Diagnostic*> liberal;
  for (const Diagnostic& d : result.diagnostics) {
    EXPECT_NE(d.rule, Rule::kNegationRace) << d.message;
    if (d.rule == Rule::kGuardSpecMismatch) liberal.push_back(&d);
  }
  ASSERT_EQ(liberal.size(), 1u)
      << analysis::FormatDiagnostics(result.diagnostics);
  EXPECT_NE(liberal[0]->message.find("admit the prefix <e>"),
            std::string::npos)
      << liberal[0]->message;
  EXPECT_NE(liberal[0]->message.find("'never_e'"), std::string::npos);
  ASSERT_EQ(liberal[0]->trace.size(), 1u);
  EXPECT_EQ(liberal[0]->trace[0].literal, "e");
}

struct SweepParam {
  uint64_t seed;
  size_t symbol_count;
  size_t dependency_count;
};

class ScheduleSpaceSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ScheduleSpaceSweep, RandomWorkflowsAreRaceFreeAndSafe) {
  const SweepParam param = GetParam();
  Rng rng(param.seed);
  RandomExprOptions options;
  options.symbol_count = param.symbol_count;
  options.max_depth = 3;
  options.constant_probability = 0.05;
  for (int iter = 0; iter < 20; ++iter) {
    WorkflowContext ctx;
    // Names for the generator's symbol ids, which findings print.
    for (size_t i = 0; i < param.symbol_count; ++i) {
      ctx.alphabet()->Intern(StrCat("s", i));
    }
    WorkflowSpec spec;
    for (size_t d = 0; d < param.dependency_count; ++d) {
      spec.Add(StrCat("d", d), GenerateRandomExpr(ctx.exprs(), &rng, options));
    }
    EXPECT_TRUE(Verified(&ctx, spec)) << "iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScheduleSpaceSweep,
                         ::testing::Values(SweepParam{31, 2, 1},
                                           SweepParam{32, 2, 2},
                                           SweepParam{33, 3, 1},
                                           SweepParam{34, 3, 2},
                                           SweepParam{35, 3, 3},
                                           SweepParam{36, 4, 1}));

}  // namespace
}  // namespace cdes
