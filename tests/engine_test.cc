// Tests for the multi-instance workflow engine (src/engine): sharded
// execution, determinism across shard counts, admission backpressure,
// durable-log recovery (including torn tails), and the metrics snapshot.
// The TSan stress cases at the bottom run under the CI thread-sanitizer job.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/generator.h"
#include "common/rng.h"
#include "common/strings.h"
#include "engine/engine.h"
#include "guards/workflow.h"
#include "obs/json.h"
#include "sched/guard_scheduler.h"
#include "sim/network.h"
#include "spec/parser.h"

namespace cdes::engine {
namespace {

constexpr char kTravelSpec[] = R"(
workflow travel {
  agent air @ site(0);
  agent car @ site(1);
  event s_buy    agent(air);
  event c_buy    agent(air);
  event s_book   agent(car) attrs(triggerable);
  event c_book   agent(car);
  event s_cancel agent(car) attrs(triggerable);
  dep d1: ~s_buy + s_book;
  dep d2: ~c_buy + c_book . c_buy;
  dep d3: ~c_book + c_buy + s_cancel;
}
)";

EngineSpecRef TravelSpec() {
  auto spec = EngineSpec::FromText(kTravelSpec);
  CDES_CHECK(spec.ok()) << spec.status();
  return spec.value();
}

/// A deterministic mix of customer journeys, keyed by instance index.
InstanceScript ScriptFor(size_t i) {
  InstanceScript script;
  script.tag = 1000 + i;
  switch (i % 3) {
    case 0:  // happy path: both transactions commit
      script.attempts = {"s_buy", "c_book", "c_buy"};
      break;
    case 1:  // compensation: the purchase aborts, booking gets cancelled
      script.attempts = {"s_buy", "c_book", "~c_buy"};
      break;
    default:  // the customer never buys
      script.attempts = {"~s_buy"};
      break;
  }
  return script;
}

std::map<uint64_t, InstanceResult> ById(std::vector<InstanceResult> results) {
  std::map<uint64_t, InstanceResult> by_id;
  for (InstanceResult& r : results) by_id[r.id] = std::move(r);
  return by_id;
}

TEST(EngineTest, SingleInstanceHappyPath) {
  EngineOptions opts;
  opts.shards = 1;
  Engine eng(TravelSpec(), opts);
  auto id = eng.Submit(ScriptFor(0));
  ASSERT_TRUE(id.ok()) << id.status();
  eng.Drain();
  auto results = eng.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  const InstanceResult& r = results[0];
  EXPECT_EQ(r.id, id.value());
  EXPECT_EQ(r.tag, 1000u);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.maximal);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.accepted, 3u);
  EXPECT_GE(r.events, 4u);  // three scripted commits + auto-triggered s_book
  EXPECT_NE(r.history.find("c_buy"), std::string::npos);
}

TEST(EngineTest, ManyInstancesAllConsistent) {
  EngineOptions opts;
  opts.shards = 2;
  Engine eng(TravelSpec(), opts);
  constexpr size_t kInstances = 60;
  for (size_t i = 0; i < kInstances; ++i) {
    ASSERT_TRUE(eng.Submit(ScriptFor(i)).ok());
  }
  eng.Drain();
  eng.Stop();
  auto results = eng.TakeResults();
  ASSERT_EQ(results.size(), kInstances);
  for (const InstanceResult& r : results) {
    EXPECT_TRUE(r.error.empty()) << "instance " << r.id << ": " << r.error;
    EXPECT_TRUE(r.maximal) << "instance " << r.id;
    EXPECT_TRUE(r.consistent) << "instance " << r.id << ": " << r.history;
  }
  // Modulo placement spread both shards' worth of work.
  EngineMetricsSnapshot snap = eng.Metrics();
  EXPECT_EQ(snap.shard_instances[0], kInstances / 2);
  EXPECT_EQ(snap.shard_instances[1], kInstances / 2);
}

// The headline determinism guarantee: the same submission order produces
// identical per-instance histories no matter how many shards the engine
// runs (placement and thread interleaving must not leak into any
// instance's world).
TEST(EngineTest, DeterministicAcrossShardCounts) {
  constexpr size_t kInstances = 48;
  std::map<uint64_t, std::string> reference;
  for (size_t shards : {1u, 2u, 4u}) {
    EngineOptions opts;
    opts.shards = shards;
    Engine eng(TravelSpec(), opts);
    for (size_t i = 0; i < kInstances; ++i) {
      ASSERT_TRUE(eng.Submit(ScriptFor(i)).ok());
    }
    eng.Drain();
    auto by_id = ById(eng.TakeResults());
    ASSERT_EQ(by_id.size(), kInstances);
    if (reference.empty()) {
      for (const auto& [id, r] : by_id) reference[id] = r.history;
      continue;
    }
    for (const auto& [id, r] : by_id) {
      EXPECT_EQ(r.history, reference[id])
          << "instance " << id << " diverged at " << shards << " shards";
    }
  }
}

/// A random workflow over `symbols` events: one agent per event, each on
/// its own site, and two random dependencies.
std::string RandomSpecText(uint64_t seed, size_t symbols) {
  WorkflowContext ctx;
  for (size_t i = 0; i < symbols; ++i) {
    ctx.alphabet()->Intern(StrCat("e", i));
  }
  RandomExprOptions options;
  options.symbol_count = symbols;
  options.max_depth = 3;
  options.max_arity = 3;
  options.constant_probability = 0.0;
  Rng rng(seed);
  std::string text = "workflow rnd {\n";
  for (size_t i = 0; i < symbols; ++i) {
    text += StrCat("  agent a", i, " @ site(", i, ");\n");
  }
  for (size_t i = 0; i < symbols; ++i) {
    text += StrCat("  event e", i, " agent(a", i, ");\n");
  }
  for (size_t d = 0; d < 2; ++d) {
    text += StrCat("  dep d", d, ": ",
                   ExprToString(GenerateRandomExpr(ctx.exprs(), &rng, options),
                                *ctx.alphabet()),
                   ";\n");
  }
  return text + "}\n";
}

/// A random script over `symbols` events: each event is attempted with
/// probability 2/3, complemented with probability 1/4, in random order.
InstanceScript RandomScript(Rng* rng, size_t symbols) {
  InstanceScript script;
  for (size_t i = 0; i < symbols; ++i) {
    if (rng->Next() % 3 == 0) continue;
    script.attempts.push_back(StrCat(rng->Next() % 4 == 0 ? "~" : "", "e", i));
  }
  for (size_t i = script.attempts.size(); i > 1; --i) {
    std::swap(script.attempts[i - 1], script.attempts[rng->Next() % i]);
  }
  return script;
}

// The premise behind shard-shared caches: what earlier instances left in
// a shard's caches never changes a later instance's history. Random specs
// run the same scripts at 1, 2 and 3 shards, so each instance shares its
// shard with different predecessors; every instance must still end with
// the same history and the same consistent/maximal flags. Instance worlds
// deliver messages in send order; announcements arriving out of stamp
// order stay covered at scheduler level by
// SymbolicCacheTest.HeardResidualMatchesReferenceFold.
TEST(EngineTest, RandomSpecsDeterministicAcrossShardCounts) {
  constexpr size_t kSymbols = 4;
  constexpr size_t kSpecs = 15;
  constexpr size_t kInstances = 60;
  size_t specs = 0;
  for (uint64_t seed = 1; specs < kSpecs && seed <= 200; ++seed) {
    std::string text = RandomSpecText(seed * 7919 + 13, kSymbols);
    {
      WorkflowContext ctx;
      auto parsed = ParseWorkflow(&ctx, text);
      ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
      if (CompileWorkflow(&ctx, parsed.value().spec).impossible()) continue;
    }
    auto spec = EngineSpec::FromText(text);
    ASSERT_TRUE(spec.ok()) << spec.status();
    Rng rng(seed);
    std::vector<InstanceScript> scripts;
    for (size_t i = 0; i < kInstances; ++i) {
      scripts.push_back(RandomScript(&rng, kSymbols));
    }
    std::map<uint64_t, std::string> reference;
    for (size_t shards : {1u, 2u, 3u}) {
      EngineOptions opts;
      opts.shards = shards;
      Engine eng(spec.value(), opts);
      for (const InstanceScript& script : scripts) {
        ASSERT_TRUE(eng.Submit(script).ok());
      }
      eng.Drain();
      auto by_id = ById(eng.TakeResults());
      ASSERT_EQ(by_id.size(), kInstances);
      for (const auto& [id, r] : by_id) {
        ASSERT_TRUE(r.error.empty()) << r.error;
        std::string outcome =
            StrCat(r.history, r.consistent ? " | consistent" : "",
                   r.maximal ? " | maximal" : "");
        if (shards == 1) {
          reference[id] = outcome;
        } else {
          EXPECT_EQ(outcome, reference[id])
              << "instance " << id << " diverged at " << shards
              << " shards\n" << text;
        }
      }
    }
    ++specs;
  }
  EXPECT_EQ(specs, kSpecs);
}

/// Drives `script` the way a shard drives an instance — each attempt run
/// to quiescence, then up to 16 closure rounds — on a co-located scheduler,
/// or on one over Network{base 1000, local 1, jitter 0} when `networked`.
/// Returns the history, the maximal/consistent flags and the run-queue
/// steps taken.
std::string RunWorld(WorkflowContext* ctx, const CompiledWorkflowRef& compiled,
                     const ParsedWorkflow& workflow,
                     const InstanceScript& script, size_t sites,
                     bool networked) {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<GuardScheduler> sched;
  if (networked) {
    NetworkOptions nopts;
    nopts.base_latency = 1000;
    nopts.local_latency = 1;
    nopts.jitter = 0;
    net = std::make_unique<Network>(&sim, sites, nopts);
    sched = std::make_unique<GuardScheduler>(ctx, compiled, workflow,
                                             net.get());
  } else {
    sched = std::make_unique<GuardScheduler>(ctx, compiled, workflow, &sim);
  }
  for (const std::string& name : script.attempts) {
    auto literal = ctx->alphabet()->ParseLiteral(name);
    CDES_CHECK(literal.ok()) << literal.status();
    sched->Attempt(literal.value(), {});
    sim.Run();
  }
  for (size_t round = 0; round < 16 && !sched->Undecided().empty();
       ++round) {
    sched->Close();
    sim.Run();
  }
  bool maximal = sched->Undecided().empty();
  return StrCat(TraceToString(sched->history(), *ctx->alphabet()),
                maximal ? " | maximal" : "",
                sched->HistoryConsistent(maximal) ? " | consistent" : "",
                " | ", sim.executed(), " steps");
}

// The premise of the engine's instance worlds: with every attempt run to
// quiescence, a co-located GuardScheduler (zero-delay FIFO run queue, no
// network) produces the same history, maximality and consistency as one
// over a zero-jitter Network, and takes the same number of run-queue
// steps. Random specs put every agent on its own site: where some agents
// share a site, the network's 1-tick local links reorder deliveries
// against send order (docs/ENGINE.md, "Determinism").
TEST(CoLocatedSchedulerTest, MatchesZeroJitterNetwork) {
  constexpr size_t kSymbols = 4;
  constexpr size_t kSpecs = 150;
  constexpr size_t kScripts = 20;
  size_t specs = 0;
  for (uint64_t seed = 1; specs < kSpecs && seed <= 2000; ++seed) {
    std::string text = RandomSpecText(seed * 104729 + 7, kSymbols);
    WorkflowContext ctx;
    auto parsed = ParseWorkflow(&ctx, text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
    CompiledWorkflowRef compiled =
        CompileWorkflowShared(&ctx, parsed.value().spec);
    if (compiled->impossible()) continue;
    Rng rng(seed);
    for (size_t k = 0; k < kScripts; ++k) {
      InstanceScript script = RandomScript(&rng, kSymbols);
      EXPECT_EQ(RunWorld(&ctx, compiled, parsed.value(), script, kSymbols,
                         /*networked=*/false),
                RunWorld(&ctx, compiled, parsed.value(), script, kSymbols,
                         /*networked=*/true))
          << "script " << StrJoin(script.attempts, " ") << "\n" << text;
    }
    ++specs;
  }
  EXPECT_EQ(specs, kSpecs);
}

TEST(EngineTest, BackpressureRejectsWhenFull) {
  EngineOptions opts;
  opts.shards = 2;
  opts.max_in_flight = 4;
  opts.start_paused = true;  // nothing completes until Resume
  Engine eng(TravelSpec(), opts);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(eng.TrySubmit(ScriptFor(i)).ok());
  }
  auto overflow = eng.TrySubmit(ScriptFor(4));
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(eng.Metrics().instances_rejected, 1u);
  EXPECT_EQ(eng.Metrics().instances_in_flight, 4u);

  eng.Drain();  // resumes, then waits
  EXPECT_EQ(eng.Metrics().instances_in_flight, 0u);
  // Capacity is back: the same submission is admitted now.
  EXPECT_TRUE(eng.TrySubmit(ScriptFor(4)).ok());
  eng.Drain();
  EXPECT_EQ(eng.TakeResults().size(), 5u);
}

TEST(EngineTest, UnknownEventSurfacesAsInstanceError) {
  EngineOptions opts;
  opts.shards = 1;
  Engine eng(TravelSpec(), opts);
  InstanceScript script;
  script.attempts = {"s_buy", "no_such_event"};
  ASSERT_TRUE(eng.Submit(std::move(script)).ok());
  eng.Drain();
  auto results = eng.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NE(results[0].error.find("no_such_event"), std::string::npos);
  EXPECT_FALSE(results[0].consistent);
}

TEST(EngineTest, RecoverResumesFromDurableLogs) {
  // Phase 1: run instances that stop mid-workflow (no closure), keeping
  // durable logs — stand-ins for instances in flight at a crash.
  std::vector<std::string> logs;
  std::map<uint64_t, std::string> pre_crash_history;
  {
    EngineOptions opts;
    opts.shards = 2;
    opts.durable_logs = true;
    Engine eng(TravelSpec(), opts);
    for (size_t i = 0; i < 6; ++i) {
      InstanceScript script;
      script.tag = i;
      script.attempts = {"s_buy", "c_book"};
      script.close = false;  // leave c_buy / s_cancel undecided
      ASSERT_TRUE(eng.Submit(std::move(script)).ok());
    }
    eng.Drain();
    for (InstanceResult& r : eng.TakeResults()) {
      ASSERT_TRUE(r.error.empty()) << r.error;
      ASSERT_FALSE(r.maximal);
      ASSERT_FALSE(r.log_text.empty());
      pre_crash_history[r.id] = r.history;
      logs.push_back(std::move(r.log_text));
    }
  }

  // Phase 2: a fresh engine rebuilds every instance from its log and
  // closes it to a maximal trace.
  EngineOptions opts;
  opts.shards = 2;
  opts.durable_logs = true;
  Engine eng(TravelSpec(), opts);
  ASSERT_TRUE(eng.Recover(logs).ok());
  eng.Drain();
  auto by_id = ById(eng.TakeResults());
  ASSERT_EQ(by_id.size(), 6u);
  for (const auto& [id, r] : by_id) {
    EXPECT_TRUE(r.error.empty()) << "instance " << id << ": " << r.error;
    EXPECT_TRUE(r.maximal) << "instance " << id;
    EXPECT_TRUE(r.consistent) << "instance " << id << ": " << r.history;
    // The recovered history extends the pre-crash one (rendered traces are
    // "<a b c>", so drop the closing bracket before the prefix check).
    std::string prefix = pre_crash_history[id];
    ASSERT_FALSE(prefix.empty());
    prefix.pop_back();
    EXPECT_EQ(r.history.rfind(prefix, 0), 0u)
        << "instance " << id << ": '" << r.history << "' does not extend '"
        << pre_crash_history[id] << "'";
    EXPECT_GT(r.history.size(), pre_crash_history[id].size());
  }
  // New submissions allocate above every recovered id.
  auto next = eng.Submit(ScriptFor(0));
  ASSERT_TRUE(next.ok());
  EXPECT_GE(next.value(), 6u);
  eng.Drain();
}

TEST(EngineTest, RecoverToleratesTornTail) {
  std::string log_text;
  {
    EngineOptions opts;
    opts.shards = 1;
    opts.durable_logs = true;
    Engine eng(TravelSpec(), opts);
    InstanceScript script;
    script.attempts = {"s_buy", "c_book"};
    script.close = false;
    ASSERT_TRUE(eng.Submit(std::move(script)).ok());
    eng.Drain();
    auto results = eng.TakeResults();
    ASSERT_EQ(results.size(), 1u);
    log_text = results[0].log_text;
    ASSERT_FALSE(log_text.empty());
  }
  // Simulate a crash mid-append: drop the trailer and cut the final record
  // line in half.
  size_t trailer = log_text.rfind("checksum ");
  ASSERT_NE(trailer, std::string::npos);
  std::string torn = log_text.substr(0, trailer);
  size_t last_line = torn.rfind('\n', torn.size() - 2);
  ASSERT_NE(last_line, std::string::npos);
  torn = torn.substr(0, last_line + 1 + (torn.size() - last_line) / 2);

  EngineOptions opts;
  opts.shards = 1;
  Engine eng(TravelSpec(), opts);
  ASSERT_TRUE(eng.Recover({torn}).ok());
  eng.Drain();
  auto results = eng.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].error.empty()) << results[0].error;
  // The torn final record is gone, but the instance still closes maximally.
  EXPECT_TRUE(results[0].maximal);
  EXPECT_TRUE(results[0].consistent) << results[0].history;
}

TEST(EngineTest, MetricsSnapshotAddsUp) {
  EngineOptions opts;
  opts.shards = 2;
  Engine eng(TravelSpec(), opts);
  constexpr size_t kInstances = 20;
  for (size_t i = 0; i < kInstances; ++i) {
    ASSERT_TRUE(eng.Submit(ScriptFor(i)).ok());
  }
  eng.Drain();
  eng.Stop();
  EngineMetricsSnapshot snap = eng.Metrics();
  EXPECT_EQ(snap.shards, 2u);
  EXPECT_EQ(snap.instances_submitted, kInstances);
  EXPECT_EQ(snap.instances_completed, kInstances);
  EXPECT_EQ(snap.instances_in_flight, 0u);
  EXPECT_GT(snap.events, 0u);
  EXPECT_GT(snap.sim_steps, snap.events);  // machinery outweighs occurrences
  uint64_t shard_sum = 0;
  for (uint64_t n : snap.shard_instances) shard_sum += n;
  EXPECT_EQ(shard_sum, kInstances);

  obs::MetricsRegistry registry;
  snap.PublishTo(&registry);
  EXPECT_EQ(registry.gauge("engine.instances.completed")->value(),
            static_cast<double>(kInstances));
  EXPECT_EQ(registry.gauge("engine.shards")->value(), 2.0);
  EXPECT_FALSE(snap.ToString().empty());

  // Shard-private scheduler registries are readable after Stop and carry
  // the per-event counters for every instance the shard ran.
  uint64_t occurrences = 0;
  for (size_t k = 0; k < eng.shard_count(); ++k) {
    const auto& counters = eng.shard_metrics(k).counters();
    auto it = counters.find("sched.occurrences");
    ASSERT_NE(it, counters.end()) << "shard " << k;
    occurrences += it->second->value();
  }
  EXPECT_EQ(occurrences, snap.events);
}

TEST(EngineTest, ResiduationTalliesSumAcrossShards) {
  // Each shard's residuator keeps its own hit/miss tallies, published as
  // shard gauges; the engine-wide figures are their sums, in the snapshot
  // and in the merged registry (Prometheus, telemetry, cdes-top).
  EngineOptions opts;
  opts.shards = 2;
  Engine eng(TravelSpec(), opts);
  for (size_t i = 0; i < 200; ++i) ASSERT_TRUE(eng.Submit(ScriptFor(i)).ok());
  eng.Drain();
  eng.Stop();
  double hits = 0, misses = 0;
  for (size_t k = 0; k < eng.shard_count(); ++k) {
    const auto& gauges = eng.shard_metrics(k).gauges();
    auto h = gauges.find("algebra.residuation_cache_hits");
    auto m = gauges.find("algebra.residuation_cache_misses");
    ASSERT_NE(h, gauges.end()) << "shard " << k;
    ASSERT_NE(m, gauges.end()) << "shard " << k;
    // Both shards did work, so no single shard's tally is the total.
    EXPECT_GT(h->second->value(), 0) << "shard " << k;
    EXPECT_GT(m->second->value(), 0) << "shard " << k;
    hits += h->second->value();
    misses += m->second->value();
  }
  EngineMetricsSnapshot snap = eng.Metrics();
  EXPECT_EQ(static_cast<double>(snap.residuation_cache_hits), hits);
  EXPECT_EQ(static_cast<double>(snap.residuation_cache_misses), misses);
  obs::MetricsRegistry merged;
  eng.MergeMetricsInto(&merged);
  ASSERT_TRUE(merged.gauges().count("algebra.residuation_cache_hits"));
  EXPECT_EQ(merged.gauge("algebra.residuation_cache_hits")->value(), hits);
  EXPECT_EQ(merged.gauge("algebra.residuation_cache_misses")->value(),
            misses);
  EXPECT_FALSE(merged.counters().count("algebra.residuation_cache_hits"));
}

TEST(EngineTest, InstanceSpansRecordedWhenTraced) {
  obs::TraceRecorder recorder;
  EngineOptions opts;
  opts.shards = 2;
  opts.tracer = &recorder;
  Engine eng(TravelSpec(), opts);
  for (size_t i = 0; i < 8; ++i) ASSERT_TRUE(eng.Submit(ScriptFor(i)).ok());
  eng.Drain();
  eng.Stop();
  size_t spans = 0;
  for (const auto& ev : recorder.events()) {
    if (ev.name.rfind("instance ", 0) == 0) ++spans;
  }
  EXPECT_EQ(spans, 8u);
}

/// Finds `name` in the snapshot's histogram digests, or nullptr.
const EngineMetricsSnapshot::HistogramSummary* FindHistogram(
    const EngineMetricsSnapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

TEST(EngineTest, LatencyHistogramsSummarizedInSnapshot) {
  EngineOptions opts;
  opts.shards = 2;
  opts.lifecycle_metrics = true;
  Engine eng(TravelSpec(), opts);
  constexpr size_t kInstances = 12;
  for (size_t i = 0; i < kInstances; ++i) {
    ASSERT_TRUE(eng.Submit(ScriptFor(i)).ok());
  }
  eng.Drain();
  eng.Stop();
  EngineMetricsSnapshot snap = eng.Metrics();
  // Submit→complete and admission-wait are observed once per instance in
  // the manager's registry.
  const auto* lat = FindHistogram(snap, "engine.latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, kInstances);
  EXPECT_GE(lat->p99, lat->p50);
  const auto* wait = FindHistogram(snap, "engine.admission_wait_us");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, kInstances);
  // After Stop the worker-confined shard registries merge in too: the
  // per-instance scheduler lifecycle histograms become engine-level
  // digests (that is what lifecycle_metrics buys).
  EXPECT_NE(FindHistogram(snap, "sched.decision_latency_us"), nullptr);

  // PublishTo exports each digest as <name>.{count,mean,p50,p99,max}
  // gauges, and ToString renders one line per histogram.
  obs::MetricsRegistry registry;
  snap.PublishTo(&registry);
  EXPECT_EQ(registry.gauge("engine.latency_us.count")->value(),
            static_cast<double>(kInstances));
  EXPECT_NE(snap.ToString().find("engine.latency_us"), std::string::npos);
}

TEST(EngineTest, TelemetryFileStreamsParseableSnapshots) {
  const std::string path =
      ::testing::TempDir() + "cdes_engine_telemetry.jsonl";
  std::remove(path.c_str());
  EngineOptions opts;
  opts.shards = 2;
  Engine eng(TravelSpec(), opts);
  ASSERT_TRUE(
      eng.StartTelemetryFile(std::chrono::milliseconds(5), path).ok());
  constexpr size_t kInstances = 16;
  for (size_t i = 0; i < kInstances; ++i) {
    ASSERT_TRUE(eng.Submit(ScriptFor(i)).ok());
  }
  eng.Drain();
  eng.Stop();  // joins the publisher, then emits one final covering line
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string line, last;
  size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    last = line;
    // Every line is one valid JSON object (the cdes-top contract).
    EXPECT_TRUE(obs::ParseJson(line).ok()) << line;
  }
  ASSERT_GE(lines, 1u);
  auto parsed = obs::ParseJson(last);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::JsonValue& snap = parsed.value();
  EXPECT_DOUBLE_EQ(snap.Find("schema_version")->number(), 2.0);
  EXPECT_DOUBLE_EQ(snap.Find("completed")->number(),
                   static_cast<double>(kInstances));
  EXPECT_DOUBLE_EQ(snap.Find("in_flight")->number(), 0.0);
  ASSERT_NE(snap.Find("shard_queue_depth"), nullptr);
  EXPECT_EQ(snap.Find("shard_queue_depth")->array().size(), 2u);
  // The final line lands after shutdown, so it carries the full-run
  // latency histogram.
  const obs::JsonValue* hist = snap.Find("histograms");
  ASSERT_NE(hist, nullptr);
  const obs::JsonValue* lat = hist->Find("engine.latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->Find("count")->number(),
                   static_cast<double>(kInstances));
  std::remove(path.c_str());
}

TEST(EngineTest, FlowEventsLinkSubmitToCompletion) {
  obs::TraceRecorder recorder;
  obs::GuardProfiler profiler(/*sample_every=*/1);
  EngineOptions opts;
  opts.shards = 2;
  opts.tracer = &recorder;
  opts.profiler = &profiler;
  Engine eng(TravelSpec(), opts);
  constexpr size_t kInstances = 10;
  for (size_t i = 0; i < kInstances; ++i) {
    ASSERT_TRUE(eng.Submit(ScriptFor(i)).ok());
  }
  eng.Drain();
  eng.Stop();
  // Each instance gets a flow arrow from its submit slice on the engine
  // lane to its completion span on whichever shard ran it.
  std::set<uint64_t> start_ids, end_ids;
  for (const obs::TraceEvent& e : recorder.events()) {
    if (e.name != "instance") continue;
    if (e.phase == obs::TraceEvent::Phase::kFlowStart) {
      EXPECT_EQ(e.pid, kEngineTracePid);
      EXPECT_TRUE(start_ids.insert(e.id).second) << e.id;
    } else if (e.phase == obs::TraceEvent::Phase::kFlowEnd) {
      EXPECT_LT(e.pid, 2);  // a shard lane
      EXPECT_TRUE(end_ids.insert(e.id).second) << e.id;
    }
  }
  EXPECT_EQ(start_ids.size(), kInstances);
  EXPECT_EQ(start_ids, end_ids);
  EXPECT_EQ(recorder.CountEvents(obs::SpanCategory::kSim, "submit ",
                                 obs::TraceEvent::Phase::kComplete),
            kInstances);
  // With the shared profiler attached, the JSONL snapshot line names the
  // hottest guard sites.
  auto parsed = obs::ParseJson(eng.Metrics().ToJsonLine(123, &profiler));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::JsonValue* hot = parsed.value().Find("hot_guards");
  ASSERT_NE(hot, nullptr);
  ASSERT_FALSE(hot->array().empty());
  EXPECT_NE(hot->array()[0].Find("site"), nullptr);
}

TEST(EngineTest, RecoverRejectsDuplicateInstanceIds) {
  // Two logs claiming the same instance id would run the instance twice on
  // its shard; Recover must refuse the whole batch up front, before any
  // instance materializes.
  std::string log_text;
  {
    EngineOptions opts;
    opts.shards = 1;
    opts.durable_logs = true;
    Engine eng(TravelSpec(), opts);
    InstanceScript script;
    script.attempts = {"s_buy"};
    script.close = false;
    ASSERT_TRUE(eng.Submit(std::move(script)).ok());
    eng.Drain();
    auto results = eng.TakeResults();
    ASSERT_EQ(results.size(), 1u);
    log_text = results[0].log_text;
  }
  EngineOptions opts;
  opts.shards = 2;
  Engine eng(TravelSpec(), opts);
  Status status = eng.Recover({log_text, log_text});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("duplicate instance id"), std::string::npos)
      << status;
  // Nothing was admitted: the engine drains instantly with no results.
  EXPECT_EQ(eng.Metrics().instances_in_flight, 0u);
  eng.Drain();
  EXPECT_TRUE(eng.TakeResults().empty());
}

TEST(EngineTest, CheckpointedLogRecoversLikeGenesisLog) {
  // The same instance run twice: once with plain durable logs (genesis
  // replay on recovery) and once with an aggressive checkpoint policy
  // (restore + empty suffix). Recovery must land both on the same maximal
  // history.
  const std::string dir = ::testing::TempDir() + "cdes_ckpt_engine";
  std::filesystem::remove_all(dir);
  auto run_phase1 = [&](bool checkpointed) {
    EngineOptions opts;
    opts.shards = 1;
    if (checkpointed) {
      opts.wal_dir = dir;
      opts.checkpoint_every = 1;  // compact at every quiescent turn
    } else {
      opts.durable_logs = true;
    }
    Engine eng(TravelSpec(), opts);
    InstanceScript script;
    script.attempts = {"s_buy", "c_book"};
    script.close = false;
    CDES_CHECK(eng.Submit(std::move(script)).ok());
    eng.Drain();
    eng.Stop();
    auto results = eng.TakeResults();
    CDES_CHECK(results.size() == 1);
    CDES_CHECK(results[0].error.empty()) << results[0].error;
    if (checkpointed) {
      // The policy actually fired and the sealed log carries a section.
      auto it = eng.shard_metrics(0).counters().find("engine.checkpoints");
      CDES_CHECK(it != eng.shard_metrics(0).counters().end());
      CDES_CHECK(it->second->value() > 0);
      CDES_CHECK(results[0].log_text.find("ckpt ") != std::string::npos);
    } else {
      CDES_CHECK(results[0].log_text.find("ckpt ") == std::string::npos);
    }
    return results[0].log_text;
  };
  std::string genesis_log = run_phase1(false);
  std::string checkpointed_log = run_phase1(true);
  // Completed instances retire their WAL files; the sealed log is the
  // durable record.
  size_t leftover = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir)) {
    ++leftover;
  }
  EXPECT_EQ(leftover, 0u);

  auto recover = [&](const std::string& log_text) {
    EngineOptions opts;
    opts.shards = 1;
    Engine eng(TravelSpec(), opts);
    CDES_CHECK(eng.Recover({log_text}).ok());
    eng.Drain();
    auto results = eng.TakeResults();
    CDES_CHECK(results.size() == 1);
    CDES_CHECK(results[0].error.empty()) << results[0].error;
    CDES_CHECK(results[0].maximal);
    CDES_CHECK(results[0].consistent);
    return results[0].history;
  };
  EXPECT_EQ(recover(checkpointed_log), recover(genesis_log));
  std::filesystem::remove_all(dir);
}

TEST(EngineTest, WalDirAbortThenRecoverDir) {
  // Crash smoke: run a wal_dir engine with group commit and a checkpoint
  // policy, kill it mid-flight (Abort), and point a fresh engine at the
  // directory. Every instance recovered from disk must be one the dead
  // engine never reported, and must close to a consistent maximal trace.
  const std::string dir = ::testing::TempDir() + "cdes_wal_abort";
  std::filesystem::remove_all(dir);
  std::set<uint64_t> completed_before_crash;
  constexpr size_t kInstances = 24;
  {
    EngineOptions opts;
    opts.shards = 2;
    opts.wal_dir = dir;
    opts.checkpoint_every = 2;
    opts.group_commit_records = 3;
    Engine eng(TravelSpec(), opts);
    for (size_t i = 0; i < kInstances; ++i) {
      ASSERT_TRUE(eng.Submit(ScriptFor(i)).ok());
    }
    eng.Abort();  // simulated kill -9: in-flight instances stay on disk
    for (const InstanceResult& r : eng.TakeResults()) {
      completed_before_crash.insert(r.id);
    }
  }

  EngineOptions opts;
  opts.shards = 2;
  opts.wal_dir = dir;  // the restarted engine keeps journaling
  Engine eng(TravelSpec(), opts);
  ASSERT_TRUE(eng.RecoverDir(dir).ok());
  eng.Drain();
  for (const InstanceResult& r : eng.TakeResults()) {
    EXPECT_EQ(completed_before_crash.count(r.id), 0u)
        << "instance " << r.id << " recovered although already completed";
    EXPECT_TRUE(r.error.empty()) << "instance " << r.id << ": " << r.error;
    EXPECT_TRUE(r.maximal) << "instance " << r.id;
    EXPECT_TRUE(r.consistent) << "instance " << r.id << ": " << r.history;
  }
  // Recovered instances completed and retired their files.
  size_t leftover = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir)) {
    ++leftover;
  }
  EXPECT_EQ(leftover, 0u);
  std::filesystem::remove_all(dir);
}

TEST(EngineTest, RecoverDirOnMissingDirectoryFails) {
  EngineOptions opts;
  opts.shards = 1;
  Engine eng(TravelSpec(), opts);
  EXPECT_FALSE(eng.RecoverDir("/nonexistent/cdes/wal").ok());
}

// ---- TSan stress: run under the CI thread-sanitizer job ----

// Submissions, metric snapshots, and result draining race against four
// worker shards; TSan checks the mailbox/atomics story, the assertions
// check nothing is lost.
TEST(EngineStressTest, ConcurrentSubmitSnapshotAndDrain) {
  EngineOptions opts;
  opts.shards = 4;
  opts.max_in_flight = 64;
  opts.max_resident_per_shard = 8;
  Engine eng(TravelSpec(), opts);
  constexpr size_t kInstances = 300;
  std::vector<InstanceResult> results;
  for (size_t i = 0; i < kInstances; ++i) {
    ASSERT_TRUE(eng.Submit(ScriptFor(i)).ok());  // blocks on backpressure
    if (i % 17 == 0) {
      (void)eng.Metrics();
      for (auto& r : eng.TakeResults()) results.push_back(std::move(r));
    }
  }
  eng.Drain();
  eng.Stop();
  for (auto& r : eng.TakeResults()) results.push_back(std::move(r));
  ASSERT_EQ(results.size(), kInstances);
  for (const InstanceResult& r : results) {
    EXPECT_TRUE(r.error.empty()) << "instance " << r.id << ": " << r.error;
    EXPECT_TRUE(r.consistent) << "instance " << r.id;
  }
}

TEST(EngineStressTest, StopWithWorkStillQueued) {
  EngineOptions opts;
  opts.shards = 4;
  opts.start_paused = true;
  Engine eng(TravelSpec(), opts);
  for (size_t i = 0; i < 100; ++i) ASSERT_TRUE(eng.Submit(ScriptFor(i)).ok());
  // Stop resumes the shards and lets them drain their mailboxes before
  // joining: nothing already admitted is dropped.
  eng.Stop();
  EXPECT_EQ(eng.TakeResults().size(), 100u);
}

}  // namespace
}  // namespace cdes::engine
