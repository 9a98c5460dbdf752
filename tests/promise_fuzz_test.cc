// Stress tests for the ordered-promise consensus machinery: random
// workflows with every positive event attempted concurrently (the
// worst-case for promise chains), under jittery and reordering networks.
// Invariants: realized histories never violate a dependency; after closure
// every symbol is decided and all dependencies are fully satisfied.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algebra/generator.h"
#include "algebra/residuation.h"
#include "common/strings.h"
#include "sched/guard_scheduler.h"
#include "spec/parser.h"

namespace cdes {
namespace {

struct FuzzParam {
  uint64_t seed;
  size_t symbol_count;
  size_t dependency_count;
  bool fifo;
};

class PromiseFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(PromiseFuzzTest, ConcurrentAttemptsStaySafeAndClose) {
  const FuzzParam param = GetParam();
  Rng rng(param.seed);
  RandomExprOptions options;
  options.symbol_count = param.symbol_count;
  options.max_depth = 3;
  options.constant_probability = 0.05;

  for (int iter = 0; iter < 12; ++iter) {
    // Build a random spec.
    std::string spec_text = "workflow f {\n";
    for (size_t s = 0; s < param.symbol_count; ++s) {
      spec_text += StrCat("  event ev", s, ";\n");
    }
    {
      WorkflowContext scratch;
      Alphabet names;
      for (size_t s = 0; s < param.symbol_count; ++s) {
        names.Intern(StrCat("ev", s));
      }
      for (size_t d = 0; d < param.dependency_count; ++d) {
        const Expr* expr = GenerateRandomExpr(scratch.exprs(), &rng, options);
        spec_text += StrCat("  dep d", d, ": ", ExprToString(expr, names),
                            ";\n");
      }
    }
    spec_text += "}\n";

    WorkflowContext ctx;
    auto parsed = ParseWorkflow(&ctx, spec_text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << spec_text;

    // Joint satisfiability: the conjunction of all dependencies must admit
    // some trace, else nothing can ever occur (cross-dependency
    // contradictions like {~e, e} are invisible to per-dependency checks —
    // detecting them needs exactly the product the paper's approach
    // avoids, so the scheduler parks/rejects forever, which is correct).
    std::vector<const Expr*> all_deps;
    bool dep_impossible = false;
    for (const Dependency& dep : parsed.value().spec.dependencies()) {
      all_deps.push_back(dep.expr);
      dep_impossible |= !IsSatisfiable(ctx.residuator(), dep.expr);
    }
    bool impossible =
        !IsSatisfiable(ctx.residuator(), ctx.exprs()->And(all_deps));

    Simulator sim;
    NetworkOptions nopts;
    nopts.base_latency = 200;
    nopts.jitter = 700;
    nopts.fifo_links = param.fifo;
    nopts.seed = param.seed * 1000 + iter;
    Network net(&sim, 4, nopts);
    GuardScheduler sched(&ctx, parsed.value(), &net);

    // Attempt every positive event at (nearly) the same instant.
    for (size_t s = 0; s < param.symbol_count; ++s) {
      auto lit = ctx.alphabet()->ParseLiteral(StrCat("ev", s));
      ASSERT_TRUE(lit.ok());
      sim.ScheduleAt(rng.Uniform(5), [&sched, l = lit.value()] {
        sched.Attempt(l, AttemptCallback());
      });
    }
    sim.Run();
    if (dep_impossible) {
      // A single unsatisfiable dependency disables everything up front.
      EXPECT_TRUE(sched.history().empty()) << spec_text;
      continue;
    }
    if (impossible) {
      // Jointly-unsatisfiable set: whatever occurred must not have
      // violated any individual dependency, but the maximality/closure
      // guarantees do not apply (the scheduler parks/rejects forever).
      EXPECT_TRUE(sched.HistoryConsistent()) << spec_text;
      continue;
    }
    EXPECT_TRUE(sched.HistoryConsistent())
        << spec_text << "history: "
        << TraceToString(sched.history(), *ctx.alphabet());
    EXPECT_EQ(sched.violations(), 0u) << spec_text;

    // Drive toward a maximal trace. Liveness is best-effort for arbitrary
    // dependency webs: the distributed consensus may park conservatively
    // where only a joint (product) analysis could certify progress — the
    // paper's §6 calls full consensus "actually too strong" and does not
    // claim completeness. What must always hold: anything that did occur
    // violated nothing, and a fully decided run satisfies everything.
    for (int round = 0; round < 8 && !sched.Undecided().empty(); ++round) {
      sched.Close();
      sim.Run();
    }
    EXPECT_TRUE(sched.HistoryConsistent()) << spec_text;
    if (sched.Undecided().empty()) {
      EXPECT_TRUE(sched.HistoryConsistent(true))
          << spec_text << "history: "
          << TraceToString(sched.history(), *ctx.alphabet());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PromiseFuzzTest,
    ::testing::Values(FuzzParam{41, 2, 1, true}, FuzzParam{42, 2, 2, true},
                      FuzzParam{43, 3, 2, true}, FuzzParam{44, 3, 3, true},
                      FuzzParam{45, 4, 2, true}, FuzzParam{46, 3, 2, false},
                      FuzzParam{47, 4, 3, false}),
    [](const ::testing::TestParamInfo<FuzzParam>& info) {
      const FuzzParam& p = info.param;
      return StrCat("seed", p.seed, "_symbols", p.symbol_count, "_deps",
                    p.dependency_count, p.fifo ? "_fifo" : "_reorder");
    });

TEST(PromiseChainTest, LongChainsResolveFromSimultaneousAttempts) {
  // a1·a2·...·an with every event attempted at once: promise forwarding
  // must certify the whole ordered chain end to end.
  for (size_t n : {2u, 3u, 5u, 8u, 10u}) {
    std::string spec_text = "workflow ch {\n";
    std::vector<std::string> names;
    for (size_t i = 0; i < n; ++i) {
      names.push_back(StrCat("a", i));
      spec_text += StrCat("  event a", i, ";\n");
    }
    spec_text += "  dep chain: " + StrJoin(names, " . ") + ";\n}\n";

    WorkflowContext ctx;
    auto parsed = ParseWorkflow(&ctx, spec_text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    Simulator sim;
    NetworkOptions nopts;
    nopts.base_latency = 100;
    Network net(&sim, 4, nopts);
    GuardScheduler sched(&ctx, parsed.value(), &net);
    // Attempt in reverse order, all at t=0.
    for (size_t i = n; i-- > 0;) {
      auto lit = ctx.alphabet()->ParseLiteral(names[i]);
      ASSERT_TRUE(lit.ok());
      sched.Attempt(lit.value(), AttemptCallback());
    }
    sim.Run();
    EXPECT_EQ(sched.history().size(), n) << "chain length " << n;
    EXPECT_TRUE(sched.HistoryConsistent(true)) << "chain length " << n;
    EXPECT_EQ(sched.parked_count(), 0u) << "chain length " << n;
    // The realized order is exactly the chain order.
    for (size_t i = 0; i < sched.history().size(); ++i) {
      EXPECT_EQ(ctx.alphabet()->Name(sched.history()[i].symbol()),
                names[i]);
    }
  }
}

}  // namespace
}  // namespace cdes
