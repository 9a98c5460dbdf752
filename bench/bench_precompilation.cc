// Experiment C1 — §6: "Much of the required symbolic reasoning can be
// precompiled, leading to efficiency at runtime." We separate the one-time
// compile cost (guard synthesis + canonicalization) from the per-event
// runtime cost (announcement assimilation by ReduceGuard + EvaluateNow),
// and show the amortization across events.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <chrono>

#include "bench_util.h"
#include "runtime/event_actor.h"
#include "temporal/reduction.h"

namespace cdes {
namespace {

void PrintAmortization() {
  std::printf("==== Precompilation vs runtime (travel workflow) ====\n");
  using Clock = std::chrono::steady_clock;

  auto t0 = Clock::now();
  WorkflowContext ctx;
  auto parsed = ParseWorkflow(&ctx, bench::kTravelSpec);
  CDES_CHECK(parsed.ok());
  CompiledWorkflow compiled = CompileWorkflow(&ctx, parsed.value().spec);
  auto t1 = Clock::now();
  double compile_us =
      std::chrono::duration<double, std::micro>(t1 - t0).count();

  // Runtime: reduce the c_book guard by a full happy-path occurrence
  // sequence, many times.
  const Guard* guard = compiled.GuardFor(
      ctx.alphabet()->ParseLiteral("c_buy").value());
  std::vector<EventLiteral> occurrences = {
      ctx.alphabet()->ParseLiteral("s_book").value(),
      ctx.alphabet()->ParseLiteral("s_buy").value(),
      ctx.alphabet()->ParseLiteral("c_book").value(),
  };
  const int kRounds = 100000;
  auto t2 = Clock::now();
  for (int i = 0; i < kRounds; ++i) {
    const Guard* g = guard;
    for (EventLiteral l : occurrences) {
      g = ReduceGuard(ctx.guards(), ctx.residuator(), g,
                      {AnnouncementKind::kOccurred, l});
    }
    benchmark::DoNotOptimize(EventActor::EvaluateNow(g));
  }
  auto t3 = Clock::now();
  double reduce_us =
      std::chrono::duration<double, std::micro>(t3 - t2).count() / kRounds;

  // The alternative to precompilation: synthesize the guard from scratch
  // at every attempt (what a naive scheduler would do).
  const int kOnlineRounds = 2000;
  auto t4 = Clock::now();
  for (int i = 0; i < kOnlineRounds; ++i) {
    WorkflowContext fresh;
    auto reparsed = ParseWorkflow(&fresh, bench::kTravelSpec);
    CDES_CHECK(reparsed.ok());
    const Dependency& d2 = reparsed.value().spec.dependencies()[1];
    benchmark::DoNotOptimize(fresh.synthesizer()->SynthesizeSimplified(
        d2.expr, fresh.alphabet()->ParseLiteral("c_buy").value()));
  }
  auto t5 = Clock::now();
  double online_us =
      std::chrono::duration<double, std::micro>(t5 - t4).count() /
      kOnlineRounds;

  std::printf("one-time guard compilation: %10.1f us (5 events, 3 deps)\n",
              compile_us);
  std::printf("runtime per 3-announcement assimilation: %7.3f us "
              "(precompiled, memoized arenas)\n",
              reduce_us);
  std::printf("online synthesis per attempt (no precompilation): %8.1f us "
              "— %.0fx the precompiled runtime cost\n\n",
              online_us, online_us / std::max(reduce_us, 1e-9));
}

void BM_CompileGuards(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    WorkflowContext ctx;
    auto parsed = ParseWorkflow(&ctx, bench::kTravelSpec);
    CDES_CHECK(parsed.ok());
    state.ResumeTiming();
    CompiledWorkflow cw = CompileWorkflow(&ctx, parsed.value().spec);
    benchmark::DoNotOptimize(&cw);
  }
  state.SetLabel("one-time, with semantic canonicalization");
}
BENCHMARK(BM_CompileGuards);

void BM_CompileGuardsNoSimplify(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    WorkflowContext ctx;
    auto parsed = ParseWorkflow(&ctx, bench::kTravelSpec);
    CDES_CHECK(parsed.ok());
    state.ResumeTiming();
    CompileOptions options;
    options.simplify = false;
    CompiledWorkflow cw = CompileWorkflow(&ctx, parsed.value().spec, options);
    benchmark::DoNotOptimize(&cw);
  }
  state.SetLabel("one-time, raw Definition 2 output");
}
BENCHMARK(BM_CompileGuardsNoSimplify);

void BM_RuntimeReduceAnnouncement(benchmark::State& state) {
  WorkflowContext ctx;
  auto parsed = ParseWorkflow(&ctx, bench::kTravelSpec);
  CDES_CHECK(parsed.ok());
  CompiledWorkflow compiled = CompileWorkflow(&ctx, parsed.value().spec);
  const Guard* guard =
      compiled.GuardFor(ctx.alphabet()->ParseLiteral("c_buy").value());
  EventLiteral c_book = ctx.alphabet()->ParseLiteral("c_book").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ReduceGuard(ctx.guards(), ctx.residuator(), guard,
                    {AnnouncementKind::kOccurred, c_book}));
  }
  state.SetLabel("per-announcement assimilation (memoized arenas)");
}
BENCHMARK(BM_RuntimeReduceAnnouncement);

void BM_RuntimeEvaluateNow(benchmark::State& state) {
  WorkflowContext ctx;
  auto parsed = ParseWorkflow(&ctx, bench::kTravelSpec);
  CDES_CHECK(parsed.ok());
  CompiledWorkflow compiled = CompileWorkflow(&ctx, parsed.value().spec);
  const Guard* guard =
      compiled.GuardFor(ctx.alphabet()->ParseLiteral("c_book").value());
  for (auto _ : state) {
    benchmark::DoNotOptimize(EventActor::EvaluateNow(guard));
  }
}
BENCHMARK(BM_RuntimeEvaluateNow);

void BM_EndToEndAttemptNoSimplify(benchmark::State& state) {
  // Ablation: unsimplified (raw Definition 2) guards through the full
  // scheduler — correctness identical, guards bulkier, reductions slower.
  for (auto _ : state) {
    state.PauseTiming();
    WorkflowContext ctx;
    auto parsed = ParseWorkflow(&ctx, bench::kTravelSpec);
    CDES_CHECK(parsed.ok());
    Simulator sim;
    NetworkOptions nopts;
    Network net(&sim, 2, nopts);
    GuardSchedulerOptions options;
    options.simplify_guards = false;
    GuardScheduler sched(&ctx, parsed.value(), &net, options);
    state.ResumeTiming();
    for (const char* name : {"s_buy", "c_book", "c_buy"}) {
      sched.Attempt(ctx.alphabet()->ParseLiteral(name).value(), {});
      sim.Run();
    }
    CDES_CHECK(sched.HistoryConsistent());
    benchmark::DoNotOptimize(sched.history().size());
  }
  state.SetLabel("raw Definition 2 guards (ablation)");
}
BENCHMARK(BM_EndToEndAttemptNoSimplify);

/// An 8-stage pipeline: precompiled guards are an order of magnitude larger
/// than the travel workflow's, so per-event assimilation cost is dominated
/// by the reduction walk the ReductionCache short-circuits.
constexpr char kPipelineSpec[] = R"(
workflow pipeline {
  agent a @ site(0);
  event e0 agent(a);
  event e1 agent(a);
  event e2 agent(a);
  event e3 agent(a);
  event e4 agent(a);
  event e5 agent(a);
  event e6 agent(a);
  event e7 agent(a);
  dep d: e0 . e1 . e2 . e3 . e4 . e5 . e6 . e7;
}
)";

/// Steady-state announcement assimilation against the pipeline's
/// precompiled guards: what a warm shard does for every resident instance
/// after the first. Cached mode replays through the shard-shared
/// ReductionCache; uncached is the pre-PR recursive walk.
struct SteadyStateAssimilation {
  WorkflowContext ctx;
  std::vector<const Guard*> guards;
  std::vector<EventLiteral> trace;

  SteadyStateAssimilation() {
    auto parsed = ParseWorkflow(&ctx, kPipelineSpec);
    CDES_CHECK(parsed.ok());
    CompiledWorkflow compiled = CompileWorkflow(&ctx, parsed.value().spec);
    for (int i = 0; i < 8; ++i) {
      EventLiteral lit =
          ctx.alphabet()->ParseLiteral(StrCat("e", i)).value();
      guards.push_back(compiled.GuardFor(lit));
      trace.push_back(lit);
    }
  }

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

void BM_SteadyStateAssimilationUncached(benchmark::State& state) {
  SteadyStateAssimilation fx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.ReplayOnce(nullptr));
  }
  state.SetLabel("pre-PR: recursive reduction walk per announcement");
}
BENCHMARK(BM_SteadyStateAssimilationUncached);

void BM_SteadyStateAssimilationCached(benchmark::State& state) {
  SteadyStateAssimilation fx;
  ReductionCache cache;
  fx.ReplayOnce(&cache);  // first instance pays the misses
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.ReplayOnce(&cache));
  }
  state.SetLabel("warm shard-shared ReductionCache (steady state)");
}
BENCHMARK(BM_SteadyStateAssimilationCached);

/// Steady-state scheduler fixture: one shard-like WorkflowContext hosting
/// many travel instances back to back. Every instance after the first
/// assimilates announcements via ReductionCache hits and replays hold-back
/// folds from memoized prefixes — the shape of a warm engine shard.
struct SteadyStateScheduler {
  WorkflowContext ctx;
  ParsedWorkflow workflow;
  std::vector<EventLiteral> attempts;

  SteadyStateScheduler() {
    auto parsed = ParseWorkflow(&ctx, bench::kTravelSpec);
    CDES_CHECK(parsed.ok());
    workflow = std::move(parsed).value();
    for (const char* name : {"s_buy", "c_book", "c_buy"}) {
      attempts.push_back(ctx.alphabet()->ParseLiteral(name).value());
    }
  }

  size_t RunInstance() {
    Simulator sim;
    NetworkOptions nopts;
    Network net(&sim, 2, nopts);
    GuardScheduler sched(&ctx, workflow, &net);
    for (EventLiteral lit : attempts) {
      sched.Attempt(lit, {});
      sim.Run();
    }
    return sched.history().size();
  }
};

void BM_SteadyStateInstanceCached(benchmark::State& state) {
  SteadyStateScheduler fx;
  fx.RunInstance();  // warm the shard-shared caches
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.RunInstance());
  }
  state.SetLabel("warm shard: memoized reductions + flat evaluation");
}
BENCHMARK(BM_SteadyStateInstanceCached);

/// Chrono-measured steady-state comparison exported into
/// BENCH_precompilation.json for CI diffing (same pattern as bench_ex9).
void RecordSteadyStateGauges() {
  using Clock = std::chrono::steady_clock;
  auto& m = bench::BenchMetrics();
  {
    SteadyStateAssimilation fx;
    const int kRounds = 20000;
    auto t0 = Clock::now();
    for (int i = 0; i < kRounds; ++i) {
      benchmark::DoNotOptimize(fx.ReplayOnce(nullptr));
    }
    auto t1 = Clock::now();
    ReductionCache cache;
    fx.ReplayOnce(&cache);  // warm
    auto t2 = Clock::now();
    for (int i = 0; i < kRounds; ++i) {
      benchmark::DoNotOptimize(fx.ReplayOnce(&cache));
    }
    auto t3 = Clock::now();
    double uncached_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / kRounds;
    double cached_ns =
        std::chrono::duration<double, std::nano>(t3 - t2).count() / kRounds;
    m.gauge("precompilation.steady_state_assimilation_uncached_ns")
        ->Set(uncached_ns);
    m.gauge("precompilation.steady_state_assimilation_cached_ns")
        ->Set(cached_ns);
    m.gauge("precompilation.steady_state_assimilation_speedup")
        ->Set(cached_ns > 0 ? uncached_ns / cached_ns : 0);
    std::printf(
        "steady-state assimilation (pipeline/8): %.0f ns uncached, %.0f ns "
        "cached  =>  %.1fx\n",
        uncached_ns, cached_ns, uncached_ns / cached_ns);
  }
  {
    SteadyStateScheduler fx;
    const int kRounds = 3000;
    fx.RunInstance();  // warm
    auto t0 = Clock::now();
    for (int i = 0; i < kRounds; ++i) {
      benchmark::DoNotOptimize(fx.RunInstance());
    }
    auto t1 = Clock::now();
    double cached_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / kRounds;
    m.gauge("precompilation.steady_state_instance_cached_ns")->Set(cached_ns);
    std::printf(
        "steady-state instance: %.0f ns (warm shard; full scheduler turn "
        "incl. simulated messaging)\n",
        cached_ns);
  }
}

void BM_EndToEndAttempt(benchmark::State& state) {
  // Full per-workflow cost through the distributed scheduler, dominated by
  // simulated message handling rather than symbolic work once compiled.
  for (auto _ : state) {
    state.PauseTiming();
    WorkflowContext ctx;
    auto parsed = ParseWorkflow(&ctx, bench::kTravelSpec);
    CDES_CHECK(parsed.ok());
    Simulator sim;
    NetworkOptions nopts;
    Network net(&sim, 2, nopts);
    GuardScheduler sched(&ctx, parsed.value(), &net);
    state.ResumeTiming();
    for (const char* name : {"s_buy", "c_book", "c_buy"}) {
      sched.Attempt(ctx.alphabet()->ParseLiteral(name).value(), {});
      sim.Run();
    }
    benchmark::DoNotOptimize(sched.history().size());
  }
  state.SetLabel("3 attempts + triggering, one travel instance");
}
BENCHMARK(BM_EndToEndAttempt);

}  // namespace
}  // namespace cdes

int main(int argc, char** argv) {
  cdes::PrintAmortization();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  cdes::RecordSteadyStateGauges();
  cdes::bench::ExportBenchMetrics("precompilation");
  return 0;
}
