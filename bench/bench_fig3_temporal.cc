// Experiment F3 — Figure 3: the temporal-operator table over Γ = {e, ē},
// regenerated from the T semantics, plus microbenchmarks of guard
// evaluation and the cost of exact semantic canonicalization.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "algebra/generator.h"
#include "guards/context.h"
#include "temporal/guard_semantics.h"
#include "temporal/simplify.h"
#include "bench_util.h"

namespace cdes {
namespace {

void PrintFigure3() {
  std::printf("==== Figure 3: temporal operators related to events ====\n");
  WorkflowContext ctx;
  SymbolId e = ctx.alphabet()->Intern("e");
  EventLiteral pe = EventLiteral::Positive(e);
  EventLiteral ne = EventLiteral::Complement(e);
  struct Row {
    const char* label;
    const Guard* guard;
  };
  GuardArena* g = ctx.guards();
  ExprArena* x = ctx.exprs();
  std::vector<Row> rows = {
      {"!e    ", g->Neg(pe)},       {"[]e   ", g->Box(pe)},
      {"<>e   ", g->Diamond(x->Atom(pe))}, {"!~e   ", g->Neg(ne)},
      {"[]~e  ", g->Box(ne)},       {"<>~e  ", g->Diamond(x->Atom(ne))},
  };
  std::vector<std::pair<Trace, size_t>> points = {
      {{pe}, 0}, {{pe}, 1}, {{ne}, 0}, {{ne}, 1}};
  std::printf("%-8s %-8s %-8s %-8s %-8s\n", "", "<e>,0", "<e>,1", "<~e>,0",
              "<~e>,1");
  for (const Row& row : rows) {
    std::printf("%-8s", row.label);
    for (const auto& [trace, index] : points) {
      std::printf(" %-8s", HoldsAt(trace, index, row.guard) ? "X" : "");
    }
    std::printf("\n");
  }
  // Example 8's derived identities.
  std::printf("\nExample 8 identities (checked semantically):\n");
  std::printf("  (a) []e + []~e  != T : %s\n",
              !GuardIsValid(g->Or(g->Box(pe), g->Box(ne))) ? "ok" : "FAIL");
  std::printf("  (b) <>e + <>~e   = T : %s\n",
              g->Or(g->Diamond(x->Atom(pe)), g->Diamond(x->Atom(ne)))
                      ->IsTrue()
                  ? "ok"
                  : "FAIL");
  std::printf("  (c) <>e | <>~e   = 0 : %s\n",
              g->And(g->Diamond(x->Atom(pe)), g->Diamond(x->Atom(ne)))
                      ->IsFalse()
                  ? "ok"
                  : "FAIL");
  std::printf("  (e) !e + []e     = T : %s\n",
              g->Or(g->Neg(pe), g->Box(pe))->IsTrue() ? "ok" : "FAIL");
  std::printf("  (f) !e + []~e    = !e: %s\n",
              GuardEquivalent(g->Or(g->Neg(pe), g->Box(ne)), g->Neg(pe))
                  ? "ok"
                  : "FAIL");
  std::printf("\n");
}

void BM_HoldsAt(benchmark::State& state) {
  WorkflowContext ctx;
  SymbolId e = ctx.alphabet()->Intern("e");
  SymbolId f = ctx.alphabet()->Intern("f");
  EventLiteral pe = EventLiteral::Positive(e);
  EventLiteral pf = EventLiteral::Positive(f);
  const Guard* g = ctx.guards()->Or(
      ctx.guards()->And(ctx.guards()->Neg(pf), ctx.guards()->Box(pe)),
      ctx.guards()->Diamond(ctx.exprs()->Seq(ctx.exprs()->Atom(pe),
                                             ctx.exprs()->Atom(pf))));
  Trace u = {pe, pf};
  for (auto _ : state) {
    benchmark::DoNotOptimize(HoldsAt(u, 1, g));
  }
}
BENCHMARK(BM_HoldsAt);

void BM_GuardStateSpace(benchmark::State& state) {
  const size_t k = state.range(0);
  std::set<SymbolId> symbols;
  for (size_t i = 0; i < k; ++i) symbols.insert(static_cast<SymbolId>(i));
  for (auto _ : state) {
    GuardTruthTable table(symbols);
    benchmark::DoNotOptimize(table.all().data());
    state.counters["points"] = static_cast<double>(table.point_count());
  }
  state.SetLabel("2^k * k! * (k+1) points");
}
BENCHMARK(BM_GuardStateSpace)->DenseRange(1, 6);

void BM_SimplifyGuard(benchmark::State& state) {
  WorkflowContext ctx;
  Rng rng(13);
  RandomExprOptions options;
  options.symbol_count = state.range(0);
  options.max_depth = 2;
  std::vector<const Guard*> guards;
  for (int i = 0; i < 16; ++i) {
    EventLiteral a(static_cast<SymbolId>(rng.Uniform(options.symbol_count)),
                   rng.Bernoulli(0.5));
    EventLiteral b(static_cast<SymbolId>(rng.Uniform(options.symbol_count)),
                   rng.Bernoulli(0.5));
    guards.push_back(ctx.guards()->Or(
        ctx.guards()->And(ctx.guards()->Neg(a), ctx.guards()->Neg(b)),
        ctx.guards()->Diamond(GenerateRandomExpr(ctx.exprs(), &rng, options))));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SimplifyGuard(ctx.guards(), guards[i++ % guards.size()]));
  }
}
BENCHMARK(BM_SimplifyGuard)->DenseRange(2, 5);

void BM_GuardEquivalence(benchmark::State& state) {
  WorkflowContext ctx;
  SymbolId e = ctx.alphabet()->Intern("e");
  EventLiteral pe = EventLiteral::Positive(e);
  EventLiteral ne = EventLiteral::Complement(e);
  const Guard* a = ctx.guards()->Or(ctx.guards()->Neg(pe),
                                    ctx.guards()->Box(ne));
  const Guard* b = ctx.guards()->Neg(pe);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GuardEquivalent(a, b));
  }
}
BENCHMARK(BM_GuardEquivalence);

}  // namespace
}  // namespace cdes

int main(int argc, char** argv) {
  cdes::PrintFigure3();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  cdes::bench::ExportBenchMetrics("fig3_temporal");
  return 0;
}
