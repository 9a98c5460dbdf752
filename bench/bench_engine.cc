// Multi-instance engine throughput: how aggregate events/sec scales with
// worker shards when thousands of independent travel-booking instances run
// concurrently. Instance-local guard synthesis (§4.2–4.3) is what makes the
// workload embarrassingly shardable — each instance's guards consult only
// its own announcements, so shards share nothing but the spec.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <thread>

#include "bench_util.h"
#include "engine/engine.h"
#include "obs/profiler.h"

namespace cdes {
namespace {

engine::EngineSpecRef TravelEngineSpec() {
  auto spec = engine::EngineSpec::FromText(bench::kTravelSpec);
  CDES_CHECK(spec.ok()) << spec.status();
  return spec.value();
}

/// The same journey mix the engine tests use: two thirds commit or
/// compensate (full protocol traffic), one third abort early.
engine::InstanceScript ScriptFor(size_t i) {
  engine::InstanceScript script;
  script.tag = i;
  switch (i % 3) {
    case 0:
      script.attempts = {"s_buy", "c_book", "c_buy"};
      break;
    case 1:
      script.attempts = {"s_buy", "c_book", "~c_buy"};
      break;
    default:
      script.attempts = {"~s_buy"};
      break;
  }
  return script;
}

/// Preloads `instances` scripts into a paused engine, then times
/// Resume→Drain only (submission cost excluded). Returns events/sec.
double RunEngine(size_t shards, size_t instances, uint64_t* events_out,
                 obs::GuardProfiler* profiler = nullptr,
                 engine::EngineMetricsSnapshot* snap_out = nullptr) {
  engine::EngineOptions opts;
  opts.shards = shards;
  opts.max_in_flight = 0;  // unbounded: preload everything
  opts.start_paused = true;
  opts.profiler = profiler;
  engine::Engine eng(TravelEngineSpec(), opts);
  for (size_t i = 0; i < instances; ++i) {
    CDES_CHECK(eng.Submit(ScriptFor(i)).ok());
  }
  auto start = std::chrono::steady_clock::now();
  eng.Drain();  // resumes, then waits for all instances
  auto elapsed = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  eng.Stop();
  engine::EngineMetricsSnapshot snap = eng.Metrics();
  CDES_CHECK(snap.instances_completed == instances);
  uint64_t events = snap.events;
  if (events_out != nullptr) *events_out = events;
  if (snap_out != nullptr) *snap_out = std::move(snap);
  return elapsed > 0 ? static_cast<double>(events) / elapsed : 0;
}

/// The headline table: 1000 instances at 1/2/4 shards, with the 4-vs-1
/// speedup and the submit→complete latency percentiles recorded in the
/// exported metrics snapshot (the cross-PR perf trajectory).
void PrintEngineSummary(obs::GuardProfiler* profiler) {
  constexpr size_t kInstances = 1000;
  std::printf(
      "==== Engine shard scaling: %zu travel instances (§4.2 instance-local "
      "guards) ====\n",
      kInstances);
  unsigned cores = std::thread::hardware_concurrency();
  if (cores < 4) {
    std::printf("NOTE: only %u hardware thread(s) — shard parallelism cannot "
                "show a speedup on this machine\n", cores);
  }
  bench::BenchMetrics()
      .gauge("engine.hardware_threads")
      ->Set(static_cast<double>(cores));
  std::printf("%-8s %-12s %-14s %-10s\n", "shards", "events", "events/sec",
              "speedup");
  double base = 0;
  for (size_t shards : {1, 2, 4}) {
    uint64_t events = 0;
    engine::EngineMetricsSnapshot snap;
    double rate = RunEngine(shards, kInstances, &events, profiler, &snap);
    if (shards == 1) base = rate;
    double speedup = base > 0 ? rate / base : 0;
    std::printf("%-8zu %-12llu %-14.0f %.2fx\n", shards,
                static_cast<unsigned long long>(events), rate, speedup);
    bench::BenchMetrics()
        .gauge(StrCat("engine.events_per_sec.shards", shards))
        ->Set(rate);
    for (const engine::EngineMetricsSnapshot::HistogramSummary& h :
         snap.histograms) {
      if (h.name != "engine.latency_us" &&
          h.name != "engine.admission_wait_us") {
        continue;
      }
      bench::BenchMetrics()
          .gauge(StrCat(h.name, ".p50.shards", shards))
          ->Set(static_cast<double>(h.p50));
      bench::BenchMetrics()
          .gauge(StrCat(h.name, ".p99.shards", shards))
          ->Set(static_cast<double>(h.p99));
      bench::BenchMetrics()
          .gauge(StrCat(h.name, ".mean.shards", shards))
          ->Set(h.mean);
    }
    if (shards == 4) {
      bench::BenchMetrics().gauge("engine.speedup.shards4_vs_1")->Set(speedup);
    }
    if (shards == 1) {
      // Symbolic-cache effectiveness of a whole engine run (post-Stop merge
      // of the shard registries). CI asserts the hit rate is positive — a
      // zero here means the shard-shared memoization silently unplugged.
      bench::BenchMetrics()
          .gauge("guards.reduction_cache_hit_rate")
          ->Set(snap.ReductionCacheHitRate());
      bench::BenchMetrics()
          .gauge("guards.reduction_cache_hits")
          ->Set(static_cast<double>(snap.reduction_cache_hits));
      bench::BenchMetrics()
          .gauge("guards.reduction_cache_misses")
          ->Set(static_cast<double>(snap.reduction_cache_misses));
      bench::BenchMetrics()
          .gauge("algebra.residuation_cache_hits")
          ->Set(static_cast<double>(snap.residuation_cache_hits));
      bench::BenchMetrics()
          .gauge("algebra.residuation_cache_misses")
          ->Set(static_cast<double>(snap.residuation_cache_misses));
      std::printf("  symbolic caches (1 shard): reduction %.1f%% hit "
                  "(%llu/%llu), residuation %llu/%llu hit\n",
                  100.0 * snap.ReductionCacheHitRate(),
                  static_cast<unsigned long long>(snap.reduction_cache_hits),
                  static_cast<unsigned long long>(snap.reduction_cache_hits +
                                                  snap.reduction_cache_misses),
                  static_cast<unsigned long long>(snap.residuation_cache_hits),
                  static_cast<unsigned long long>(
                      snap.residuation_cache_hits +
                      snap.residuation_cache_misses));
    }
  }

  std::printf("\n");
}

void BM_EngineThroughput(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  const size_t instances = static_cast<size_t>(state.range(1));
  uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    engine::EngineOptions opts;
    opts.shards = shards;
    opts.max_in_flight = 0;
    opts.start_paused = true;
    engine::Engine eng(TravelEngineSpec(), opts);
    for (size_t i = 0; i < instances; ++i) {
      CDES_CHECK(eng.Submit(ScriptFor(i)).ok());
    }
    state.ResumeTiming();
    eng.Drain();
    state.PauseTiming();
    eng.Stop();
    events += eng.Metrics().events;
    state.ResumeTiming();
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineThroughput)
    ->Args({1, 256})
    ->Args({2, 256})
    ->Args({4, 256})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

/// Steady-state submission under backpressure: a bounded engine with the
/// submitter racing the shards, the production shape (vs the preloaded
/// batches above).
void BM_EngineSubmitStream(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  uint64_t submitted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    engine::EngineOptions opts;
    opts.shards = shards;
    opts.max_in_flight = 128;
    engine::Engine eng(TravelEngineSpec(), opts);
    state.ResumeTiming();
    for (size_t i = 0; i < 512; ++i) {
      CDES_CHECK(eng.Submit(ScriptFor(i)).ok());  // blocks when 128 in flight
    }
    eng.Drain();
    state.PauseTiming();
    eng.Stop();
    submitted += 512;
    state.ResumeTiming();
  }
  state.counters["instances/s"] = benchmark::Counter(
      static_cast<double>(submitted), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineSubmitStream)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace cdes

int main(int argc, char** argv) {
  // Strip --profile[=<collapsed-out>] before Google Benchmark sees (and
  // rejects) it.
  bool profile = false;
  const char* profile_path = nullptr;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--profile") {
      profile = true;
    } else if (std::strncmp(argv[i], "--profile=", 10) == 0) {
      profile = true;
      if (argv[i][10] != '\0') profile_path = argv[i] + 10;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  cdes::obs::GuardProfiler profiler(/*sample_every=*/64);
  cdes::PrintEngineSummary(profile ? &profiler : nullptr);
  benchmark::RunSpecifiedBenchmarks();
  if (profile) {
    cdes::obs::SymbolicCacheStats cache_stats =
        cdes::obs::CacheStatsFrom(cdes::bench::BenchMetrics());
    std::printf("\n-- guard profile --\n%s",
                profiler.TopKReport(10, &cache_stats).c_str());
    if (profile_path != nullptr) {
      std::string collapsed = profiler.CollapsedStacks();
      std::FILE* f = std::fopen(profile_path, "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", profile_path);
        return 1;
      }
      std::fwrite(collapsed.data(), 1, collapsed.size(), f);
      std::fclose(f);
      std::printf("profile: collapsed stacks -> %s\n", profile_path);
    }
  }
  cdes::bench::ExportBenchMetrics("engine");
  return 0;
}
