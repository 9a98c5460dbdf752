// Experiment F4/E9 — Figure 4 and Example 9: guard synthesis. Regenerates
// all eight guards of Example 9 next to the paper's reported forms, then
// benchmarks Definition-2 synthesis across dependency families and sizes,
// including the Lemma-5 path-sum formulation as a (much costlier)
// cross-check and the Theorem-2/4 disjoint-split optimization.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "algebra/generator.h"
#include "common/strings.h"
#include "guards/context.h"
#include "guards/workflow.h"
#include "temporal/reduction.h"
#include "temporal/simplify.h"
#include "bench_util.h"

namespace cdes {
namespace {

void PrintExample9() {
  std::printf("==== Example 9: guards computed from Definition 2 ====\n");
  WorkflowContext ctx;
  SymbolId e = ctx.alphabet()->Intern("e");
  SymbolId f = ctx.alphabet()->Intern("f");
  EventLiteral pe = EventLiteral::Positive(e), ne = pe.Complemented();
  EventLiteral pf = EventLiteral::Positive(f), nf = pf.Complemented();
  const Expr* d_prec = KleinPrecedes(ctx.exprs(), e, f);

  struct Item {
    const char* label;
    const Expr* dep;
    EventLiteral lit;
    const char* paper;
  };
  std::vector<Item> items = {
      {"1. G(T, e)   ", ctx.exprs()->Top(), pe, "T"},
      {"2. G(0, e)   ", ctx.exprs()->Zero(), pe, "0"},
      {"3. G(e, e)   ", ctx.exprs()->Atom(pe), pe, "T"},
      {"4. G(~e, e)  ", ctx.exprs()->Atom(ne), pe, "0"},
      {"5. G(D<, ~e) ", d_prec, ne, "T"},
      {"6. G(D<, e)  ", d_prec, pe, "!f"},
      {"7. G(D<, ~f) ", d_prec, nf, "T"},
      {"8. G(D<, f)  ", d_prec, pf, "<>(~e) + []e"},
  };
  std::printf("%-14s %-18s %s\n", "item", "paper", "computed");
  for (const Item& item : items) {
    const Guard* g = ctx.synthesizer()->SynthesizeSimplified(item.dep,
                                                             item.lit);
    std::printf("%-14s %-18s %s\n", item.label, item.paper,
                GuardToString(g, *ctx.alphabet()).c_str());
  }

  std::printf("\nExample 11 (mutual implications): guard(e) under e->f is "
              "%s; guard(f) under f->e is %s\n",
              GuardToString(ctx.synthesizer()->SynthesizeSimplified(
                                KleinImplies(ctx.exprs(), e, f), pe),
                            *ctx.alphabet())
                  .c_str(),
              GuardToString(ctx.synthesizer()->SynthesizeSimplified(
                                KleinImplies(ctx.exprs(), f, e), pf),
                            *ctx.alphabet())
                  .c_str());
  std::printf("\n");
}

std::vector<SymbolId> MakeSymbols(WorkflowContext* ctx, size_t n) {
  std::vector<SymbolId> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(ctx->alphabet()->Intern(StrCat("s", i)));
  }
  return out;
}

void BM_SynthesizeChain(benchmark::State& state) {
  const size_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    WorkflowContext ctx;
    std::vector<SymbolId> symbols = MakeSymbols(&ctx, n);
    const Expr* d = Chain(ctx.exprs(), symbols);
    EventLiteral target = EventLiteral::Positive(symbols[n / 2]);
    state.ResumeTiming();
    benchmark::DoNotOptimize(ctx.synthesizer()->Synthesize(d, target));
  }
  state.SetLabel("cold cache, middle event of e1.e2...en");
}
BENCHMARK(BM_SynthesizeChain)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void BM_SynthesizeOrderedIfAll(benchmark::State& state) {
  const size_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    WorkflowContext ctx;
    std::vector<SymbolId> symbols = MakeSymbols(&ctx, n);
    const Expr* d = OrderedIfAll(ctx.exprs(), symbols);
    EventLiteral target = EventLiteral::Positive(symbols.back());
    state.ResumeTiming();
    benchmark::DoNotOptimize(ctx.synthesizer()->Synthesize(d, target));
  }
}
BENCHMARK(BM_SynthesizeOrderedIfAll)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_SynthesizeMemoized(benchmark::State& state) {
  WorkflowContext ctx;
  std::vector<SymbolId> symbols = MakeSymbols(&ctx, 6);
  const Expr* d = OrderedIfAll(ctx.exprs(), symbols);
  EventLiteral target = EventLiteral::Positive(symbols[3]);
  ctx.synthesizer()->Synthesize(d, target);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.synthesizer()->Synthesize(d, target));
  }
  state.SetLabel("warm cache (precompiled lookups)");
}
BENCHMARK(BM_SynthesizeMemoized);

void BM_SynthesizeViaPathsLemma5(benchmark::State& state) {
  const size_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    WorkflowContext ctx;
    std::vector<SymbolId> symbols = MakeSymbols(&ctx, n);
    const Expr* d = OrderedIfAll(ctx.exprs(), symbols);
    EventLiteral target = EventLiteral::Positive(symbols.back());
    state.ResumeTiming();
    benchmark::DoNotOptimize(ctx.synthesizer()->SynthesizeViaPaths(d, target));
  }
  state.SetLabel("Lemma 5 path enumeration (reference)");
}
BENCHMARK(BM_SynthesizeViaPathsLemma5)->Arg(2)->Arg(3)->Arg(4);

void BM_SynthesizeDisjointSplit(benchmark::State& state) {
  // Theorem 2/4 ablation: k independent Klein dependencies joined by '+'.
  // The component split makes this linear in k instead of exponential.
  const size_t k = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    WorkflowContext ctx;
    std::vector<const Expr*> parts;
    for (size_t i = 0; i < k; ++i) {
      SymbolId a = ctx.alphabet()->Intern(StrCat("a", i));
      SymbolId b = ctx.alphabet()->Intern(StrCat("b", i));
      parts.push_back(KleinPrecedes(ctx.exprs(), a, b));
    }
    const Expr* d = ctx.exprs()->Or(parts);
    EventLiteral target =
        EventLiteral::Positive(ctx.alphabet()->Find("a0"));
    state.ResumeTiming();
    benchmark::DoNotOptimize(ctx.synthesizer()->Synthesize(d, target));
  }
}
BENCHMARK(BM_SynthesizeDisjointSplit)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// The steady-state fixture: one long-lived shard context whose compiled
/// OrderedIfAll(5) guards see the same announcement traffic from every
/// resident instance. Instance k>1's reductions are pure ReductionCache
/// lookups — the shape the shard-shared memo is built for.
struct SteadyStateFixture {
  WorkflowContext ctx;
  std::vector<SymbolId> symbols;
  std::vector<const Guard*> guards;
  std::vector<EventLiteral> trace;

  SteadyStateFixture() {
    symbols = MakeSymbols(&ctx, 5);
    const Expr* d = OrderedIfAll(ctx.exprs(), symbols);
    for (SymbolId s : symbols) {
      guards.push_back(
          ctx.synthesizer()->SynthesizeSimplified(d, EventLiteral::Positive(s)));
      trace.push_back(EventLiteral::Positive(s));
    }
  }

  /// One instance's worth of assimilation: every guard folded over the
  /// whole occurrence trace. Returns a checksum so nothing is elided.
  size_t ReplayOnce(ReductionCache* cache) {
    size_t checksum = 0;
    for (const Guard* g : guards) {
      for (EventLiteral l : trace) {
        g = ReduceGuard(ctx.guards(), ctx.residuator(), g,
                        {AnnouncementKind::kOccurred, l}, cache);
      }
      checksum += g->id();
    }
    return checksum;
  }
};

void BM_SteadyStateReduceUncached(benchmark::State& state) {
  SteadyStateFixture fx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.ReplayOnce(nullptr));
  }
  state.SetLabel("pre-PR behavior: full recursive reduction walk per event");
}
BENCHMARK(BM_SteadyStateReduceUncached);

void BM_SteadyStateReduceCached(benchmark::State& state) {
  SteadyStateFixture fx;
  ReductionCache cache;
  fx.ReplayOnce(&cache);  // warm: first instance pays the misses
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.ReplayOnce(&cache));
  }
  state.SetLabel("shard-shared ReductionCache, steady state (all hits)");
}
BENCHMARK(BM_SteadyStateReduceCached);

void BM_PermitsNow(benchmark::State& state) {
  SteadyStateFixture fx;
  const Guard* g = fx.guards.back();
  for (auto _ : state) {
    benchmark::DoNotOptimize(g->PermitsNow());
  }
  state.SetLabel("verdict stored on the interned node");
}
BENCHMARK(BM_PermitsNow);

/// Chrono-measured steady-state comparison exported into BENCH_ex9_guards
/// .json, so CI can diff the cached/uncached ratio without scraping the
/// google-benchmark console table.
void RecordSteadyStateGauges() {
  using Clock = std::chrono::steady_clock;
  SteadyStateFixture fx;
  const int kRounds = 20000;

  auto t0 = Clock::now();
  for (int i = 0; i < kRounds; ++i) benchmark::DoNotOptimize(fx.ReplayOnce(nullptr));
  auto t1 = Clock::now();

  ReductionCache cache;
  fx.ReplayOnce(&cache);  // warm
  auto t2 = Clock::now();
  for (int i = 0; i < kRounds; ++i) benchmark::DoNotOptimize(fx.ReplayOnce(&cache));
  auto t3 = Clock::now();

  double uncached_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / kRounds;
  double cached_ns =
      std::chrono::duration<double, std::nano>(t3 - t2).count() / kRounds;
  auto& m = bench::BenchMetrics();
  m.gauge("ex9.steady_state_reduce_uncached_ns")->Set(uncached_ns);
  m.gauge("ex9.steady_state_reduce_cached_ns")->Set(cached_ns);
  m.gauge("ex9.steady_state_reduce_speedup")
      ->Set(cached_ns > 0 ? uncached_ns / cached_ns : 0);
  m.gauge("guards.reduction_cache_hit_rate")
      ->Set(static_cast<double>(cache.hits()) /
            static_cast<double>(cache.hits() + cache.misses()));
  std::printf(
      "steady-state assimilation: %.0f ns/instance uncached, %.0f ns/instance "
      "cached  =>  %.1fx (reduction cache %.1f%% hit)\n",
      uncached_ns, cached_ns, uncached_ns / cached_ns,
      100.0 * static_cast<double>(cache.hits()) /
          static_cast<double>(cache.hits() + cache.misses()));
}

void BM_CompileTravelWorkflow(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    WorkflowContext ctx;
    WorkflowSpec spec;
    SymbolId s_buy = ctx.alphabet()->Intern("s_buy");
    SymbolId c_buy = ctx.alphabet()->Intern("c_buy");
    SymbolId s_book = ctx.alphabet()->Intern("s_book");
    SymbolId c_book = ctx.alphabet()->Intern("c_book");
    SymbolId s_cancel = ctx.alphabet()->Intern("s_cancel");
    auto atom = [&](SymbolId s, bool c = false) {
      return ctx.exprs()->Atom(EventLiteral(s, c));
    };
    spec.Add("d1", ctx.exprs()->Or(atom(s_buy, true), atom(s_book)));
    spec.Add("d2", ctx.exprs()->Or(atom(c_buy, true),
                                   ctx.exprs()->Seq(atom(c_book),
                                                    atom(c_buy))));
    const Expr* d3_parts[] = {atom(c_book, true), atom(c_buy),
                              atom(s_cancel)};
    spec.Add("d3", ctx.exprs()->Or(d3_parts));
    state.ResumeTiming();
    CompiledWorkflow cw = CompileWorkflow(&ctx, spec);
    benchmark::DoNotOptimize(&cw);
  }
  state.SetLabel("full Example 4 workflow, simplified guards");
}
BENCHMARK(BM_CompileTravelWorkflow);

}  // namespace
}  // namespace cdes

int main(int argc, char** argv) {
  cdes::PrintExample9();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  cdes::RecordSteadyStateGauges();
  cdes::bench::ExportBenchMetrics("ex9_guards");
  return 0;
}
