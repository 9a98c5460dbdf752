// Experiment C3 — §6's critique of the prior automata approach [2]: "It
// avoids generating product automata, but the individual automata
// themselves can be quite large." We compare, per dependency family and
// size: the precompiled automaton (states + transitions) against the
// synthesized guard representation (hash-consed guard nodes per literal),
// plus build-time benchmarks.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <unordered_set>

#include "algebra/generator.h"
#include "common/strings.h"
#include "guards/context.h"
#include "sched/automata_scheduler.h"
#include "bench_util.h"

namespace cdes {
namespace {

struct SizeRow {
  size_t n;
  size_t automaton_states;
  size_t automaton_transitions;
  size_t guard_nodes;  // distinct DAG nodes across all literals' guards
};

SizeRow MeasureOrderedIfAll(size_t n) {
  WorkflowContext ctx;
  std::vector<SymbolId> symbols;
  for (size_t i = 0; i < n; ++i) {
    symbols.push_back(ctx.alphabet()->Intern(StrCat("s", i)));
  }
  const Expr* d = OrderedIfAll(ctx.exprs(), symbols);
  DependencyAutomaton automaton =
      BuildDependencyAutomaton(ctx.residuator(), d);
  std::unordered_set<const Guard*> seen;
  size_t guard_nodes = 0;
  for (SymbolId s : symbols) {
    for (EventLiteral l :
         {EventLiteral::Positive(s), EventLiteral::Complement(s)}) {
      guard_nodes += GuardNodeCount(ctx.synthesizer()->Synthesize(d, l),
                                    &seen);
    }
  }
  return SizeRow{n, automaton.states.size(), automaton.transitions.size(),
                 guard_nodes};
}

SizeRow MeasureChain(size_t n) {
  WorkflowContext ctx;
  std::vector<SymbolId> symbols;
  for (size_t i = 0; i < n; ++i) {
    symbols.push_back(ctx.alphabet()->Intern(StrCat("s", i)));
  }
  const Expr* d = Chain(ctx.exprs(), symbols);
  DependencyAutomaton automaton =
      BuildDependencyAutomaton(ctx.residuator(), d);
  std::unordered_set<const Guard*> seen;
  size_t guard_nodes = 0;
  for (SymbolId s : symbols) {
    for (EventLiteral l :
         {EventLiteral::Positive(s), EventLiteral::Complement(s)}) {
      guard_nodes += GuardNodeCount(ctx.synthesizer()->Synthesize(d, l),
                                    &seen);
    }
  }
  return SizeRow{n, automaton.states.size(), automaton.transitions.size(),
                 guard_nodes};
}

void PrintSizes() {
  std::printf("==== Automata size [2] vs guard representation ====\n");
  std::printf("family: ordered-if-all (n-ary D_<: ~e1+...+~en + e1...en)\n");
  std::printf("%-4s %14s %14s %14s\n", "n", "DFA states", "DFA trans",
              "guard nodes");
  for (size_t n : {2, 3, 4, 5, 6}) {
    SizeRow row = MeasureOrderedIfAll(n);
    std::printf("%-4zu %14zu %14zu %14zu\n", row.n, row.automaton_states,
                row.automaton_transitions, row.guard_nodes);
  }
  std::printf("\nfamily: chain (e1.e2...en — all in order)\n");
  std::printf("%-4s %14s %14s %14s\n", "n", "DFA states", "DFA trans",
              "guard nodes");
  for (size_t n : {2, 4, 8, 12}) {
    SizeRow row = MeasureChain(n);
    std::printf("%-4zu %14zu %14zu %14zu\n", row.n, row.automaton_states,
                row.automaton_transitions, row.guard_nodes);
  }
  std::printf("\n");
}

void BM_BuildAutomatonOrderedIfAll(benchmark::State& state) {
  const size_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    WorkflowContext ctx;
    std::vector<SymbolId> symbols;
    for (size_t i = 0; i < n; ++i) {
      symbols.push_back(ctx.alphabet()->Intern(StrCat("s", i)));
    }
    const Expr* d = OrderedIfAll(ctx.exprs(), symbols);
    state.ResumeTiming();
    DependencyAutomaton automaton =
        BuildDependencyAutomaton(ctx.residuator(), d);
    benchmark::DoNotOptimize(automaton.states.size());
  }
}
BENCHMARK(BM_BuildAutomatonOrderedIfAll)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_SynthesizeAllGuardsOrderedIfAll(benchmark::State& state) {
  const size_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    WorkflowContext ctx;
    std::vector<SymbolId> symbols;
    for (size_t i = 0; i < n; ++i) {
      symbols.push_back(ctx.alphabet()->Intern(StrCat("s", i)));
    }
    const Expr* d = OrderedIfAll(ctx.exprs(), symbols);
    state.ResumeTiming();
    for (SymbolId s : symbols) {
      benchmark::DoNotOptimize(
          ctx.synthesizer()->Synthesize(d, EventLiteral::Positive(s)));
      benchmark::DoNotOptimize(
          ctx.synthesizer()->Synthesize(d, EventLiteral::Complement(s)));
    }
  }
}
BENCHMARK(BM_SynthesizeAllGuardsOrderedIfAll)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

}  // namespace
}  // namespace cdes

int main(int argc, char** argv) {
  cdes::PrintSizes();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  cdes::bench::ExportBenchMetrics("automata_size");
  return 0;
}
