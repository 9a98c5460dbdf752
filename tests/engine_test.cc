// Tests for the multi-instance workflow engine (src/engine): sharded
// execution, determinism across shard counts, admission backpressure,
// durable-log recovery (including torn tails), and the metrics snapshot.
// The TSan stress cases at the bottom run under the CI thread-sanitizer job.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/generator.h"
#include "analysis/model_checker.h"
#include "common/rng.h"
#include "common/strings.h"
#include "engine/engine.h"
#include "guards/workflow.h"
#include "obs/json.h"
#include "runtime/checkpoint.h"
#include "sched/diagnostics.h"
#include "sched/guard_scheduler.h"
#include "sim/network.h"
#include "spec/parser.h"
#include "random_workflow.h"

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

/// A random script over `symbols` events: RandomPlan's attempts (each
/// event with probability 2/3, complemented with probability 1/4, in
/// random order).
InstanceScript RandomScript(Rng* rng, size_t symbols) {
  InstanceScript script;
  script.attempts = RandomPlan(rng, symbols);
  return script;
}

/// Runs `scripts` on the spec `text` at 1, 2 and 3 shards, durable logs on
/// at 2 shards, and expects every instance to end alike in all three runs:
/// history, consistent and maximal flags, diagnosis. Returns the run with
/// logs, by instance id.
std::map<uint64_t, InstanceResult> RunAtShardCounts(
    const std::string& text, const std::vector<InstanceScript>& scripts) {
  auto spec = EngineSpec::FromText(text);
  CDES_CHECK(spec.ok()) << spec.status();
  std::map<uint64_t, std::string> reference;
  std::map<uint64_t, InstanceResult> logged;
  for (size_t shards : {1u, 2u, 3u}) {
    EngineOptions opts;
    opts.shards = shards;
    opts.durable_logs = shards == 2;
    Engine eng(spec.value(), opts);
    for (const InstanceScript& script : scripts) {
      CDES_CHECK(eng.Submit(script).ok());
    }
    eng.Drain();
    auto by_id = ById(eng.TakeResults());
    EXPECT_EQ(by_id.size(), scripts.size());
    for (const auto& [id, r] : by_id) {
      EXPECT_TRUE(r.error.empty()) << r.error;
      std::string outcome =
          StrCat(r.history, r.consistent ? " | consistent" : "",
                 r.maximal ? " | maximal" : "", " | ", r.diagnosis);
      if (shards == 1) {
        reference[id] = outcome;
      } else {
        EXPECT_EQ(outcome, reference[id])
            << "instance " << id << " diverged at " << shards
            << " shards\n" << text;
      }
    }
    if (opts.durable_logs) logged = std::move(by_id);
  }
  return logged;
}

// The premise behind shard-shared caches: what earlier instances left in
// a shard's caches never changes a later instance's history. Random specs
// run the same scripts at 1, 2 and 3 shards, so each instance shares its
// shard with different predecessors, and with durable logs on and off;
// every instance must still end with the same history, the same
// consistent/maximal flags and the same diagnosis. Instance worlds deliver
// messages in send order; announcements arriving out of stamp order stay
// covered at scheduler level by
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
    Rng rng(seed);
    std::vector<InstanceScript> scripts;
    for (size_t i = 0; i < kInstances; ++i) {
      scripts.push_back(RandomScript(&rng, kSymbols));
    }
    RunAtShardCounts(text, scripts);
    if (HasFailure()) return;
    ++specs;
  }
  EXPECT_EQ(specs, kSpecs);
}

/// `history` ("<e0 ~e1 ...>") as a trace over `alphabet`.
Trace ParseHistory(const std::string& history, const Alphabet& alphabet) {
  Trace trace;
  std::string_view names(history);
  names = names.substr(1, names.size() - 2);
  while (!names.empty()) {
    size_t space = names.find(' ');
    auto literal = alphabet.ParseLiteral(names.substr(0, space));
    CDES_CHECK(literal.ok()) << literal.status();
    trace.push_back(literal.value());
    names = space == std::string_view::npos ? "" : names.substr(space + 1);
  }
  return trace;
}

// Theorem 6 end to end: the engine generates only computations that
// satisfy every dependency, and the model checker's guards accept them.
// Random specs whose events are triggerable, nondelayable and
// nonrejectable at random, on agents sharing two sites, run at 1, 2 and 3
// shards with durable logs on and off (RunAtShardCounts). For a spec the
// checker explores exhaustively with no error-level finding and that has
// no nonrejectable event (a forced admission may violate a dependency, by
// design), every maximal result is consistent and accepted by
// StateSpace::GuardAccepts. Every instance that ends short says why, and
// recovering each maximal result's sealed log reproduces its history.
TEST(EngineTest, AttributedRandomSpecsSatisfyTheoremSix) {
  constexpr size_t kSymbols = 4;
  constexpr size_t kSpecs = 40;
  constexpr size_t kInstances = 40;
  RandomWorkflowOptions options;
  options.sites = 2;
  options.attributes = true;
  size_t specs = 0, checked_specs = 0, recovered = 0, accepted = 0;
  for (uint64_t seed = 1; specs < kSpecs && seed <= 400; ++seed) {
    std::string text = RandomWorkflowText(seed * 4099 + 3, kSymbols, options);
    WorkflowContext ctx;
    auto parsed = ParseWorkflow(&ctx, text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
    CompiledWorkflow compiled = CompileWorkflow(&ctx, parsed.value().spec);
    if (compiled.impossible()) continue;
    analysis::CheckResult check =
        analysis::CheckCompiled(&ctx, parsed.value(), compiled);
    bool checked = !check.stats.bounded;
    for (const analysis::Diagnostic& d : check.diagnostics) {
      checked &= d.severity != analysis::Severity::kError;
    }
    for (const EventDecl& e : parsed.value().events) {
      checked &= e.attrs.rejectable;
    }
    checked_specs += checked;
    Rng rng(seed);
    std::vector<InstanceScript> scripts;
    for (size_t i = 0; i < kInstances; ++i) {
      scripts.push_back(RandomScript(&rng, kSymbols));
    }
    std::map<uint64_t, InstanceResult> results =
        RunAtShardCounts(text, scripts);
    if (HasFailure()) return;
    analysis::StateSpace space(&ctx, compiled);
    std::vector<std::string> logs;
    for (const auto& [id, r] : results) {
      if (!r.maximal) {
        EXPECT_FALSE(r.diagnosis.empty()) << r.history << "\n" << text;
        continue;
      }
      logs.push_back(r.log_text);
      if (!checked) continue;
      EXPECT_TRUE(r.consistent) << r.history << "\n" << text;
      EXPECT_TRUE(space.GuardAccepts(ParseHistory(r.history, *ctx.alphabet())))
          << r.history << "\n" << text;
      ++accepted;
    }
    EngineOptions opts;
    opts.shards = 2;
    Engine eng(EngineSpec::FromText(text).value(), opts);
    ASSERT_TRUE(eng.Recover(std::move(logs)).ok());
    eng.Drain();
    for (const auto& [id, r] : ById(eng.TakeResults())) {
      EXPECT_TRUE(r.error.empty()) << r.error;
      EXPECT_EQ(r.history, results[id].history) << "instance " << id;
      ++recovered;
    }
    ++specs;
  }
  EXPECT_EQ(specs, kSpecs);
  EXPECT_GE(checked_specs, 10u);
  EXPECT_GE(accepted, 200u);
  EXPECT_GE(recovered, 700u);
}

/// A scheduler world over `compiled`: co-located, or over a Network with
/// `sites` sites when `nopts` is given.
struct SchedWorld {
  SchedWorld(WorkflowContext* ctx, const CompiledWorkflowRef& compiled,
             const ParsedWorkflow& workflow, size_t sites,
             const NetworkOptions* nopts,
             const GuardSchedulerOptions& options = {})
      : ctx(ctx) {
    if (nopts != nullptr) {
      net = std::make_unique<Network>(&sim, sites, *nopts);
      sched = std::make_unique<GuardScheduler>(ctx, compiled, workflow,
                                               net.get(), options);
    } else {
      sched = std::make_unique<GuardScheduler>(ctx, compiled, workflow, &sim,
                                               options);
    }
  }

  /// Attempts `script` the way a shard drives an instance: each attempt
  /// run to quiescence, then one closure wave run to quiescence.
  void Drive(const InstanceScript& script) {
    for (const std::string& name : script.attempts) {
      auto literal = ctx->alphabet()->ParseLiteral(name);
      CDES_CHECK(literal.ok()) << literal.status();
      sched->Attempt(literal.value(), {});
      sim.Run();
    }
    sched->Close();
    sim.Run();
  }

  WorkflowContext* ctx;
  Simulator sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<GuardScheduler> sched;
};

/// Drives `script` (SchedWorld::Drive) on a co-located scheduler, or on one
/// over Network{base 1000, local 1, jitter 0} when `networked`. Returns the
/// history, the maximal/consistent flags and the run-queue steps taken.
std::string RunWorld(WorkflowContext* ctx, const CompiledWorkflowRef& compiled,
                     const ParsedWorkflow& workflow,
                     const InstanceScript& script, size_t sites,
                     bool networked) {
  NetworkOptions nopts;
  nopts.base_latency = 1000;
  nopts.local_latency = 1;
  nopts.jitter = 0;
  SchedWorld w(ctx, compiled, workflow, sites, networked ? &nopts : nullptr);
  w.Drive(script);
  bool maximal = w.sched->Undecided().empty();
  return StrCat(TraceToString(w.sched->history(), *ctx->alphabet()),
                maximal ? " | maximal" : "",
                w.sched->HistoryConsistent(maximal) ? " | consistent" : "",
                " | ", w.sim.executed(), " steps");
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

// GuardScheduler::Close() is one wave: on the engine's co-located worlds,
// once the run queue has drained a second wave changes no history, decides
// no symbol and sends no message. About half of these worlds stay
// non-maximal, so the property is exercised on stuck worlds too.
TEST(ClosureWaveTest, SecondWaveDecidesNothing) {
  constexpr size_t kSymbols = 4;
  constexpr size_t kSpecs = 60;
  constexpr size_t kScripts = 10;
  size_t specs = 0, stuck = 0;
  for (uint64_t seed = 1; specs < kSpecs && seed <= 2000; ++seed) {
    std::string text = RandomSpecText(seed * 7919 + 3, kSymbols);
    WorkflowContext ctx;
    auto parsed = ParseWorkflow(&ctx, text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
    CompiledWorkflowRef compiled =
        CompileWorkflowShared(&ctx, parsed.value().spec);
    if (compiled->impossible()) continue;
    Rng rng(seed);
    for (size_t k = 0; k < kScripts; ++k) {
      InstanceScript script = RandomScript(&rng, kSymbols);
      SchedWorld w(&ctx, compiled, parsed.value(), kSymbols, nullptr);
      w.Drive(script);
      Trace history = w.sched->history();
      std::vector<SymbolId> undecided = w.sched->Undecided();
      uint64_t sent = w.sched->stats().total();
      w.sched->Close();
      w.sim.Run();
      std::string where =
          StrCat("script ", StrJoin(script.attempts, " "), "\n", text);
      EXPECT_EQ(w.sched->history(), history) << where;
      EXPECT_EQ(w.sched->Undecided(), undecided) << where;
      EXPECT_EQ(w.sched->stats().total(), sent) << where;
      if (!undecided.empty()) ++stuck;
    }
    ++specs;
  }
  EXPECT_EQ(specs, kSpecs);
  EXPECT_GT(stuck, 0u);
}

// The one known world where a second wave decides something: over a
// jittered Network, actor e1 holds promises of both e0 and ~e0 (each
// granted on condition that e1 occurs), which reduce the guard of its
// parked ~e1 to 0, so ~e1 is rejected; hearing e3 afterwards lifts the
// same reduction to ⊤, but nothing attempts ~e1 again until a second
// wave. Pinned so that a fix to the promise bookkeeping shows here; the
// co-located worlds above never reach this state.
TEST(ClosureWaveTest, ConflictingPromisesLeaveWorkForASecondWave) {
  constexpr char kSpec[] = R"(
workflow rnd {
  agent a0 @ site(0);
  agent a1 @ site(1);
  agent a2 @ site(2);
  agent a3 @ site(3);
  event e0 agent(a0);
  event e1 agent(a1);
  event e2 agent(a2);
  event e3 agent(a3);
  dep d0: ~e3 + e1 . e3 . ~e0 + e0;
  dep d1: ~e0 + e3 | ~e1 . e0 + e1 | ~e1 | ~e2;
}
)";
  WorkflowContext ctx;
  auto parsed = ParseWorkflow(&ctx, kSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  NetworkOptions jittery;
  jittery.base_latency = 50;
  jittery.jitter = 200;
  jittery.fifo_links = false;
  jittery.seed = 2115;
  SchedWorld w(&ctx, CompileWorkflowShared(&ctx, parsed.value().spec),
               parsed.value(), 4, &jittery);
  InstanceScript script;
  script.attempts = {"e3", "e1", "~e2", "e0"};
  w.Drive(script);
  EXPECT_EQ(TraceToString(w.sched->history(), *ctx.alphabet()), "<e3>");
  EXPECT_EQ(w.sched->Undecided().size(), 3u);
  w.sched->Close();
  w.sim.Run();
  EXPECT_EQ(TraceToString(w.sched->history(), *ctx.alphabet()),
            "<e3 ~e1 e0 ~e2>");
  EXPECT_TRUE(w.sched->Undecided().empty());
}

// A closure wave re-attempts a scripted complement that is still parked:
// the repeated attempt joins the parked entry instead of adding a second
// one. Under `f . ~e` the scripted ~e parks on □f, and the wave attempts
// ~e again (and rejects ~f, whose guard is 0). The report lists ~e once,
// and every attempt's callback hears kParked once and, when f finally
// occurs, kAccepted once. A joining attempt is not a new park: sched.parks
// stays at 1, and no message is sent for it.
TEST(ClosureWaveTest, RepeatedAttemptJoinsItsParkedEntry) {
  WorkflowContext ctx;
  auto parsed = ParseWorkflow(&ctx, R"(
workflow join {
  event e;
  event f;
  dep d: f . ~e;
}
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  obs::MetricsRegistry metrics;
  GuardSchedulerOptions options;
  options.metrics = &metrics;
  SchedWorld w(&ctx, CompileWorkflowShared(&ctx, parsed.value().spec),
               parsed.value(), 1, nullptr, options);
  obs::Counter* parks = metrics.counter("sched.parks");
  const EventLiteral not_e = ctx.alphabet()->ParseLiteral("~e").value();
  std::vector<Decision> scripted, repeated;
  w.sched->Attempt(not_e, [&](Decision d) { scripted.push_back(d); });
  w.sim.Run();
  EXPECT_EQ(parks->value(), 1u);
  const uint64_t sent = w.sched->stats().total();
  w.sched->Close();
  w.sim.Run();
  EXPECT_EQ(parks->value(), 1u);
  EXPECT_EQ(w.sched->stats().total(), sent);
  EXPECT_EQ(w.sched->parked_count(), 1u);
  std::vector<ParkedDiagnosis> parked = DiagnoseParked(&ctx, w.sched.get());
  ASSERT_EQ(parked.size(), 1u);
  EXPECT_EQ(parked[0].literal, not_e);
  EXPECT_EQ(scripted, std::vector<Decision>{Decision::kParked});

  w.sched->Attempt(not_e, [&](Decision d) { repeated.push_back(d); });
  w.sim.Run();
  EXPECT_EQ(w.sched->parked_count(), 1u);
  EXPECT_EQ(repeated, std::vector<Decision>{Decision::kParked});
  EXPECT_EQ(parks->value(), 1u);
  EXPECT_EQ(w.sched->stats().total(), sent);
  w.sched->Attempt(ctx.alphabet()->ParseLiteral("f").value(), {});
  w.sim.Run();
  EXPECT_EQ(TraceToString(w.sched->history(), *ctx.alphabet()), "<f ~e>");
  EXPECT_EQ(w.sched->parked_count(), 0u);
  const std::vector<Decision> parked_then_accepted = {Decision::kParked,
                                                      Decision::kAccepted};
  EXPECT_EQ(scripted, parked_then_accepted);
  EXPECT_EQ(repeated, parked_then_accepted);
}

// `e . f` with script {e}: e parks waiting for f, and closure rejects both
// ~e and ~f, whose guards are 0. The instance ends non-maximal after one
// wave — three attempts in all — and says why.
TEST(EngineTest, StuckClosedInstanceIsDiagnosedAfterOneWave) {
  auto spec = EngineSpec::FromText(R"(
workflow stuck {
  event e;
  event f;
  dep d: e . f;
}
)");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EngineOptions opts;
  opts.shards = 1;
  Engine eng(spec.value(), opts);
  InstanceScript script;
  script.attempts = {"e"};
  ASSERT_TRUE(eng.Submit(std::move(script)).ok());
  eng.Drain();
  eng.Stop();
  obs::MetricsRegistry merged;
  eng.MergeMetricsInto(&merged);
  // The scripted e, then ~e and ~f once each.
  EXPECT_EQ(merged.counter("sched.attempts")->value(), 3u);
  auto results = eng.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  const InstanceResult& r = results[0];
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_FALSE(r.maximal);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.history, "<>");
  EXPECT_NE(r.diagnosis.find("undecided {e, f}"), std::string::npos)
      << r.diagnosis;
  // One parked attempt, listed once: e, waiting for f.
  size_t parked = r.diagnosis.find("parked ");
  ASSERT_NE(parked, std::string::npos) << r.diagnosis;
  EXPECT_EQ(r.diagnosis.find("parked ", parked + 1), std::string::npos)
      << r.diagnosis;
  EXPECT_EQ(r.diagnosis.compare(parked, 9, "parked e:"), 0) << r.diagnosis;
  EXPECT_NE(r.diagnosis.find("waiting for {f}", parked), std::string::npos)
      << r.diagnosis;
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

/// The durable log of a travel instance that took s_buy and c_book and
/// did not close — an instance in flight at a crash.
std::string InFlightTravelLog() {
  EngineOptions opts;
  opts.shards = 1;
  opts.durable_logs = true;
  Engine eng(TravelSpec(), opts);
  InstanceScript script;
  script.attempts = {"s_buy", "c_book"};
  script.close = false;
  CDES_CHECK(eng.Submit(std::move(script)).ok());
  eng.Drain();
  auto results = eng.TakeResults();
  CDES_CHECK(results.size() == 1u && !results[0].log_text.empty());
  return results[0].log_text;
}

/// `log_text` as a crash mid-append leaves it: the trailer dropped and the
/// final record line cut in half.
std::string TearFinalRecord(const std::string& log_text) {
  size_t trailer = log_text.rfind("checksum ");
  CDES_CHECK(trailer != std::string::npos);
  std::string torn = log_text.substr(0, trailer);
  size_t last_line = torn.rfind('\n', torn.size() - 2);
  CDES_CHECK(last_line != std::string::npos);
  return torn.substr(0, last_line + 1 + (torn.size() - last_line) / 2);
}

/// Recovers one instance from `log_text` on a fresh one-shard engine.
InstanceResult RecoverOne(const std::string& log_text) {
  EngineOptions opts;
  opts.shards = 1;
  Engine eng(TravelSpec(), opts);
  CDES_CHECK(eng.Recover({log_text}).ok());
  eng.Drain();
  auto results = eng.TakeResults();
  CDES_CHECK(results.size() == 1u);
  return results[0];
}

TEST(EngineTest, RecoverToleratesTornTail) {
  InstanceResult r = RecoverOne(TearFinalRecord(InFlightTravelLog()));
  EXPECT_TRUE(r.error.empty()) << r.error;
  // The torn final record is gone, but the instance still closes maximally.
  EXPECT_TRUE(r.maximal);
  EXPECT_TRUE(r.consistent) << r.history;
}

TEST(EngineTest, TornRecoveryLogIsDiagnosed) {
  std::string log_text = InFlightTravelLog();
  InstanceResult torn = RecoverOne(TearFinalRecord(log_text));
  EXPECT_NE(torn.diagnosis.find("torn record"), std::string::npos)
      << torn.diagnosis;
  InstanceResult intact = RecoverOne(log_text);
  EXPECT_TRUE(intact.maximal);
  EXPECT_EQ(intact.diagnosis, "");
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
  // Each shard's symbolic caches (the reduction cache and the residuator)
  // keep their own hit/miss tallies, published as shard gauges; the
  // engine-wide figures are their sums, in the snapshot and in the merged
  // registry (Prometheus, telemetry, cdes-top).
  EngineOptions opts;
  opts.shards = 2;
  Engine eng(TravelSpec(), opts);
  for (size_t i = 0; i < 200; ++i) ASSERT_TRUE(eng.Submit(ScriptFor(i)).ok());
  eng.Drain();
  eng.Stop();
  EngineMetricsSnapshot snap = eng.Metrics();
  obs::MetricsRegistry merged;
  eng.MergeMetricsInto(&merged);
  const std::pair<std::string, uint64_t> tallies[] = {
      {"algebra.residuation_cache_hits", snap.residuation_cache_hits},
      {"algebra.residuation_cache_misses", snap.residuation_cache_misses},
      {"guards.reduction_cache_hits", snap.reduction_cache_hits},
      {"guards.reduction_cache_misses", snap.reduction_cache_misses},
  };
  for (const auto& [name, in_snapshot] : tallies) {
    double sum = 0;
    for (size_t k = 0; k < eng.shard_count(); ++k) {
      const auto& gauges = eng.shard_metrics(k).gauges();
      auto g = gauges.find(name);
      ASSERT_NE(g, gauges.end()) << name << " shard " << k;
      // Both shards did work, so no single shard's tally is the total.
      EXPECT_GT(g->second->value(), 0) << name << " shard " << k;
      sum += g->second->value();
    }
    EXPECT_EQ(static_cast<double>(in_snapshot), sum) << name;
    ASSERT_TRUE(merged.gauges().count(name)) << name;
    EXPECT_EQ(merged.gauge(name)->value(), sum) << name;
    EXPECT_FALSE(merged.counters().count(name)) << name;
  }
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
  // per-instance scheduler lifecycle histograms, which every engine run
  // records, become engine-level digests.
  EXPECT_NE(FindHistogram(snap, "sched.decision_latency_us"), nullptr);

  // PublishTo exports each digest as <name>.{count,mean,p50,p99,max}
  // gauges, and ToString renders one line per histogram.
  obs::MetricsRegistry registry;
  snap.PublishTo(&registry);
  EXPECT_EQ(registry.gauge("engine.latency_us.count")->value(),
            static_cast<double>(kInstances));
  EXPECT_NE(snap.ToString().find("engine.latency_us"), std::string::npos);
}

// Every engine run records the lifecycle metrics where the actors decide.
// Over an inline fan-in spec: a2 and a1 park, a0 parks on its ◇ guard
// until ordered promises resolve the chain, and j parks until u1 and u2
// are decided. Five "join" instances accept all six attempts after four
// parks. Five "abandon" instances park four times and accept ~u1; their
// closure wave attempts ~u2 and ~j, and ~j's occurrence rejects the parked
// j: 5 attempts + 2 closure attempts, 6 accepted, 1 rejected each. No
// simulated time passes in an instance world, so every decision's latency
// is 0.
TEST(EngineTest, LifecycleMetricsRecordedByDefault) {
  auto spec = EngineSpec::FromText(R"(
workflow fan {
  event a0;
  event a1;
  event a2;
  event u1;
  event u2;
  event j;
  dep chain: a0 . a1 . a2;
  dep f1: u1 < j;
  dep f2: u2 < j;
}
)");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EngineOptions opts;
  opts.shards = 2;
  Engine eng(spec.value(), opts);
  for (size_t i = 0; i < 10; ++i) {
    InstanceScript script;
    script.attempts = i % 2 == 0
        ? std::vector<std::string>{"a2", "a1", "a0", "j", "u1", "u2"}
        : std::vector<std::string>{"a2", "a1", "a0", "j", "~u1"};
    ASSERT_TRUE(eng.Submit(std::move(script)).ok());
  }
  eng.Drain();
  eng.Stop();
  obs::MetricsRegistry merged;
  eng.MergeMetricsInto(&merged);
  auto count = [&merged](const char* name) {
    return merged.counter(name)->value();
  };
  EXPECT_EQ(count("sched.attempts"), 65u);
  EXPECT_EQ(count("sched.decisions.accepted"), 60u);
  EXPECT_EQ(count("sched.decisions.rejected"), 5u);
  EXPECT_EQ(count("sched.parks"), 40u);
  EXPECT_EQ(count("sched.occurrences"), eng.Metrics().events);
  const obs::Histogram* depth = merged.histogram("sched.parked_depth");
  EXPECT_EQ(depth->count(), count("sched.parks"));
  const obs::Histogram* latency = merged.histogram("sched.decision_latency_us");
  EXPECT_EQ(latency->count(), count("sched.decisions.accepted") +
                                  count("sched.decisions.rejected"));
  EXPECT_EQ(latency->sum(), 0u);
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

constexpr char kStampSpec[] = R"(
workflow stamps {
  event e0;
  event e1;
  event e2;
  dep d0: ~e1 + e0 . e1;
  dep d1: ~e2 + e1 . e2;
}
)";

/// Recovers the untrusted `log_text` (instance `id`) on a one-shard engine
/// with durable logs on or off, and returns the instance's result.
InstanceResult RecoverUntrusted(const std::string& log_text, uint64_t id,
                                bool durable_logs) {
  EngineOptions opts;
  opts.shards = 1;
  opts.durable_logs = durable_logs;
  Engine eng(EngineSpec::FromText(kStampSpec).value(), opts);
  CDES_CHECK(eng.Recover({log_text}).ok());
  eng.Drain();
  auto results = eng.TakeResults();
  CDES_CHECK(results.size() == 1u && results[0].id == id);
  return results[0];
}

// A checksum-valid log whose checkpoint payload resumes the stamp sequence
// at 0, below its section's last covered stamp (seq 1): the instance's next
// stamp would sort before the recovered ones (with durable logs, the
// recovered log's append check aborted the process at the first closure
// occurrence). Recovery must refuse it as the instance's error.
TEST(EngineTest, RecoverRejectsCheckpointBehindItsStamps) {
  WorkflowContext ctx;
  auto parsed = ParseWorkflow(&ctx, kStampSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const Alphabet& alphabet = *ctx.alphabet();
  EventLiteral e0 = alphabet.ParseLiteral("e0").value();
  EventLiteral e1 = alphabet.ParseLiteral("e1").value();
  EventLog log;
  log.set_instance(7);
  log.Append({OccurrenceStamp{0, 0}, e0});
  log.Append({OccurrenceStamp{0, 1}, e1});
  CheckpointState state;
  state.next_seq = 0;
  state.history = {e0, e1};
  EventLog::CheckpointSection section;
  section.covered = 2;
  section.last_stamp = OccurrenceStamp{0, 1};
  section.payload = SerializeCheckpoint(state, alphabet);
  log.InstallCheckpoint(std::move(section));
  for (bool durable_logs : {true, false}) {
    InstanceResult r = RecoverUntrusted(log.Serialize(alphabet), 7,
                                        durable_logs);
    EXPECT_NE(r.error.find("recovery failed"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("stamp sequence"), std::string::npos) << r.error;
  }
}

// A checksum-valid open log whose one record carries the largest stamp
// sequence number: the next stamp's sequence would wrap to 0 and sort
// before it. Recovery must refuse it as the instance's error.
TEST(EngineTest, RecoverRejectsExhaustedStampSequence) {
  WorkflowContext ctx;
  auto parsed = ParseWorkflow(&ctx, kStampSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EventLog log;
  log.set_instance(8);
  log.Append({OccurrenceStamp{0, std::numeric_limits<uint64_t>::max()},
              ctx.alphabet()->ParseLiteral("e0").value()});
  std::string text = log.SerializeOpen(*ctx.alphabet());
  ASSERT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  for (bool durable_logs : {true, false}) {
    InstanceResult r = RecoverUntrusted(text, 8, durable_logs);
    EXPECT_NE(r.error.find("recovery failed"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("stamp sequence is exhausted"), std::string::npos)
        << r.error;
  }
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
