// Equivalence properties of the symbolic caches: the firability verdict
// stored on each interned guard node, the shard-shared ReductionCache, the
// prefix-fold replay, and the model checker's memoized state space are
// *optimizations* of the plain semantics. Production runs only the
// memoized path; the test-side reference oracle is the plain walks —
// ReduceGuard without a cache, the recursive EvaluateNow (evaluate_now.h)
// and CommitNow — and every observable (evaluation verdicts, reduced-guard
// identities, scheduler histories, state-space transitions) must agree
// with it. Everything here runs over hundreds of random specs so the
// equivalences are exercised across guard shapes no hand-written case
// would cover.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algebra/generator.h"
#include "algebra/trace.h"
#include "analysis/state_space.h"
#include "common/rng.h"
#include "common/strings.h"
#include "sched/guard_scheduler.h"
#include "spec/parser.h"
#include "temporal/reduction.h"
#include "evaluate_now.h"
#include "random_workflow.h"

namespace cdes {
namespace {

using analysis::CheckState;
using analysis::StateSpace;

// Compiles `count` random dependencies over `symbols` fresh symbols into
// `ctx`; returns the compiled workflow (possibly impossible — caller skips).
CompiledWorkflow RandomCompiled(WorkflowContext* ctx, uint64_t seed,
                                size_t symbols, size_t count) {
  for (size_t i = 0; i < symbols; ++i) {
    ctx->alphabet()->Intern(StrCat("e", i));
  }
  Rng rng(seed);
  WorkflowSpec spec;
  size_t d = 0;
  for (const Expr* expr : RandomDeps(ctx, &rng, symbols, count)) {
    spec.Add(StrCat("d", d++), expr);
  }
  return CompileWorkflow(ctx, spec);
}

// ------------------------------------- node verdict ≡ recursive walk

// The verdict the arena stores on each node must agree with the recursive
// EvaluateNow on every guard the compiler produces *and* on every reduction
// of those guards along occurrence traces — the states the runtime actually
// evaluates.
TEST(SymbolicCacheTest, ReducedGuardVerdictsMatchRecursiveWalk) {
  constexpr size_t kSymbols = 4;
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    WorkflowContext ctx;
    CompiledWorkflow compiled = RandomCompiled(&ctx, seed, kSymbols, 2);
    if (compiled.impossible()) continue;
    Rng rng(seed * 31 + 5);
    std::vector<SymbolId> symbols(compiled.symbols().begin(),
                                  compiled.symbols().end());
    for (SymbolId symbol : symbols) {
      for (bool complemented : {false, true}) {
        const Guard* g =
            compiled.GuardFor(EventLiteral(symbol, complemented));
        // The compiled guard plus a random reduction chain off it.
        for (int step = 0; step < 1 + static_cast<int>(kSymbols); ++step) {
          ASSERT_EQ(g->PermitsNow(), EvaluateNow(g))
              << "seed " << seed << " guard "
              << GuardToString(g, *ctx.alphabet());
          ++compared;
          SymbolId next = symbols[rng.Next() % symbols.size()];
          EventLiteral lit(next, rng.Next() % 2 == 1);
          g = ReduceGuard(ctx.guards(), ctx.residuator(), g,
                          {AnnouncementKind::kOccurred, lit});
        }
      }
    }
  }
  EXPECT_GT(compared, 2000u);
}

// ---------------------------------------- cached ≡ uncached ReduceGuard

// Reduction through the shard-shared cache must return the *same interned
// node* as the plain recursive reduction, for occurrences and promises, on
// first sight (miss path) and on every repeat (hit path).
TEST(SymbolicCacheTest, CachedReductionIsPointerIdentical) {
  constexpr size_t kSymbols = 4;
  size_t compared = 0;
  uint64_t traffic = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    WorkflowContext ctx;
    CompiledWorkflow compiled = RandomCompiled(&ctx, seed * 613 + 3,
                                               kSymbols, 2);
    if (compiled.impossible()) continue;
    ReductionCache cache;
    Rng rng(seed * 17 + 1);
    std::vector<SymbolId> symbols(compiled.symbols().begin(),
                                  compiled.symbols().end());
    for (SymbolId symbol : symbols) {
      for (bool complemented : {false, true}) {
        const Guard* g =
            compiled.GuardFor(EventLiteral(symbol, complemented));
        for (int step = 0; step < 2 * static_cast<int>(kSymbols); ++step) {
          SymbolId next = symbols[rng.Next() % symbols.size()];
          EventLiteral lit(next, rng.Next() % 2 == 1);
          AnnouncementKind kind = rng.Next() % 3 == 0
                                      ? AnnouncementKind::kPromised
                                      : AnnouncementKind::kOccurred;
          Announcement ann{kind, lit};
          const Guard* plain =
              ReduceGuard(ctx.guards(), ctx.residuator(), g, ann);
          // Twice through the cache: the first call exercises the miss
          // path, the second the hit path.
          ASSERT_EQ(ReduceGuard(ctx.guards(), ctx.residuator(), g, ann,
                                &cache),
                    plain)
              << "seed " << seed;
          ASSERT_EQ(ReduceGuard(ctx.guards(), ctx.residuator(), g, ann,
                                &cache),
                    plain)
              << "seed " << seed;
          ++compared;
          if (kind == AnnouncementKind::kOccurred) g = plain;
        }
      }
    }
    traffic += cache.hits() + cache.misses();
  }
  EXPECT_GT(compared, 2000u);
  // Only composite (◇/∧/∨) nodes are memoized — atoms are cheaper than the
  // probe — so not every seed produces traffic, but the corpus must.
  EXPECT_GT(traffic, 0u);
}

// ------------------------------------------ scheduler runs vs reference

NetworkOptions JitteryNetwork(uint64_t seed) {
  NetworkOptions nopts;
  nopts.base_latency = 50;
  nopts.jitter = 200;
  nopts.seed = seed;
  return nopts;
}

// Attempts `plan` one literal at a time, then closes toward a maximal
// trace in one wave, running the simulator to quiescence after each step
// and calling `at_quiescence` there. Stops early when `at_quiescence`
// returns false.
template <typename Fn>
void DrivePlan(WorkflowContext* ctx, GuardScheduler* sched, Simulator* sim,
               const std::vector<std::string>& plan, Fn&& at_quiescence) {
  for (const std::string& name : plan) {
    auto lit = ctx->alphabet()->ParseLiteral(name);
    CDES_CHECK(lit.ok()) << lit.status();
    sched->Attempt(lit.value(), AttemptCallback());
    sim->Run();
    if (!at_quiescence()) return;
  }
  sched->Close();
  sim->Run();
  at_quiescence();
}

// The actors' memoized prefix-fold chains against the reference fold. At
// every quiescent point of a run whose announcements arrive out of stamp
// order, each actor's HeardResidual(l) must be the very node the plain
// ReduceGuard fold of l's compiled guard produces over the history's
// occurrences of the symbols that guard mentions (the history is in stamp
// order; an actor never hears its own symbol).
TEST(SymbolicCacheTest, HeardResidualMatchesReferenceFold) {
  constexpr size_t kSymbols = 4;
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    std::string text = RandomWorkflowText(seed * 131 + 7, kSymbols);
    WorkflowContext ctx;
    auto parsed = ParseWorkflow(&ctx, text);
    if (!parsed.ok()) continue;
    Rng rng(seed * 29 + 3);
    std::vector<std::string> plan = RandomPlan(&rng, kSymbols);
    Simulator sim;
    Network network(&sim, kSymbols, JitteryNetwork(seed));
    GuardScheduler sched(&ctx, parsed.value(), &network);
    auto matches_reference = [&] {
      for (SymbolId symbol : sched.symbols()) {
        for (bool complemented : {false, true}) {
          EventLiteral l(symbol, complemented);
          const Guard* expected = sched.CompiledGuardOf(l);
          std::set<SymbolId> mentioned = GuardSymbols(expected);
          for (EventLiteral occurred : sched.history()) {
            if (occurred.symbol() == symbol ||
                !mentioned.count(occurred.symbol())) {
              continue;
            }
            expected = ReduceGuard(ctx.guards(), ctx.residuator(), expected,
                                   {AnnouncementKind::kOccurred, occurred});
          }
          const Guard* actual = sched.actor(symbol)->HeardResidual(l);
          EXPECT_EQ(actual, expected)
              << "seed " << seed << " literal "
              << ctx.alphabet()->LiteralName(l) << "\nhistory "
              << TraceToString(sched.history(), *ctx.alphabet())
              << "\nactual   " << GuardToString(actual, *ctx.alphabet())
              << "\nexpected " << GuardToString(expected, *ctx.alphabet())
              << "\n" << text;
          if (actual != expected) return false;
          ++compared;
        }
      }
      return true;
    };
    DrivePlan(&ctx, &sched, &sim, plan, matches_reference);
    if (HasFailure()) return;
  }
  EXPECT_GT(compared, 5000u);
}

// History and final consistency of one run of `plan` against `compiled`
// in `ctx`, rendered as text.
std::string RunPlan(WorkflowContext* ctx, CompiledWorkflowRef compiled,
                    const ParsedWorkflow& workflow,
                    const std::vector<std::string>& plan, uint64_t seed) {
  Simulator sim;
  Network network(&sim, workflow.agents.size(), JitteryNetwork(seed));
  GuardScheduler sched(ctx, std::move(compiled), workflow, &network);
  DrivePlan(ctx, &sched, &sim, plan, [] { return true; });
  return StrCat(TraceToString(sched.history(), *ctx->alphabet()),
                sched.HistoryConsistent(true) ? " consistent" : "");
}

// The shard premise: caches a context accumulates while running earlier
// instances never change a later instance's history. Every plan run on a
// context warmed by the spec's other plans (compiled once, as a shard
// does) must give the history it gives on a fresh context. (Warming with
// *other* specs is out of scope: a context that compiled them first may
// build structurally different, equivalent guards.)
TEST(SymbolicCacheTest, WarmContextHistoriesMatchFreshContext) {
  constexpr size_t kSymbols = 4;
  constexpr size_t kPlans = 4;
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    std::string text = RandomWorkflowText(seed * 613 + 1, kSymbols);
    WorkflowContext warm;
    auto parsed = ParseWorkflow(&warm, text);
    if (!parsed.ok()) continue;
    CompiledWorkflowRef compiled =
        CompileWorkflowShared(&warm, parsed.value().spec);
    Rng rng(seed * 37 + 5);
    for (size_t k = 0; k < kPlans; ++k) {
      std::vector<std::string> plan = RandomPlan(&rng, kSymbols);
      uint64_t net_seed = seed * kPlans + k;
      std::string warm_history =
          RunPlan(&warm, compiled, parsed.value(), plan, net_seed);
      WorkflowContext fresh;
      auto fresh_parsed = ParseWorkflow(&fresh, text);
      ASSERT_TRUE(fresh_parsed.ok()) << seed;
      std::string fresh_history = RunPlan(
          &fresh, CompileWorkflowShared(&fresh, fresh_parsed.value().spec),
          fresh_parsed.value(), plan, net_seed);
      ASSERT_EQ(warm_history, fresh_history)
          << "seed " << seed << " plan " << k << "\n" << text;
      ++compared;
    }
  }
  EXPECT_GT(compared, 400u);
}

// One world of the pinned-digest corpus rendered as text: `plan` attempted
// one literal at a time and then one closure wave, each run to quiescence,
// co-located (`nopts` null) or over a Network, with the observers in
// `options`. The text holds the history, the maximal and consistent flags,
// every decision each attempt heard in callback order, the messages sent
// and the violations admitted.
std::string DigestWorld(WorkflowContext* ctx,
                        const CompiledWorkflowRef& compiled,
                        const ParsedWorkflow& workflow,
                        const std::vector<std::string>& plan, size_t sites,
                        const NetworkOptions* nopts,
                        const GuardSchedulerOptions& options) {
  std::string decisions;
  Simulator sim;
  std::unique_ptr<Network> network;
  std::unique_ptr<GuardScheduler> sched;
  if (nopts != nullptr) {
    network = std::make_unique<Network>(&sim, sites, *nopts);
    sched = std::make_unique<GuardScheduler>(ctx, compiled, workflow,
                                             network.get(), options);
  } else {
    sched = std::make_unique<GuardScheduler>(ctx, compiled, workflow, &sim,
                                             options);
  }
  for (size_t i = 0; i < plan.size(); ++i) {
    auto lit = ctx->alphabet()->ParseLiteral(plan[i]);
    CDES_CHECK(lit.ok()) << lit.status();
    sched->Attempt(lit.value(), [&decisions, i](Decision d) {
      StrAppend(&decisions, " ", i, ":", DecisionToString(d));
    });
    sim.Run();
  }
  sched->Close();
  sim.Run();
  bool maximal = sched->Undecided().empty();
  return StrCat(TraceToString(sched->history(), *ctx->alphabet()),
                maximal ? " maximal" : "",
                sched->HistoryConsistent(maximal) ? " consistent" : "", " |",
                decisions, " | ", sched->stats().total(), " msgs ",
                sched->violations(), " violations");
}

// Digests the corpus of RandomWorldsMatchPinnedDigest, with a registry, a
// tracer and a profiler timing every check installed in each world when
// `observed`.
void ExpectPinnedDigest(bool observed) {
  constexpr size_t kSymbols = 4;
  constexpr size_t kSites = 2;
  constexpr size_t kPlans = 3;
  RandomWorkflowOptions options;
  options.sites = kSites;
  options.attributes = true;
  uint64_t digest = 14695981039346656037ull;
  size_t worlds = 0;
  for (uint64_t seed = 1; seed <= 800; ++seed) {
    std::string text = RandomWorkflowText(seed * 7121 + 5, kSymbols, options);
    WorkflowContext ctx;
    auto parsed = ParseWorkflow(&ctx, text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
    CompiledWorkflowRef compiled =
        CompileWorkflowShared(&ctx, parsed.value().spec);
    if (compiled->impossible()) continue;
    Rng rng(seed * 53 + 1);
    for (size_t k = 0; k < kPlans; ++k) {
      std::vector<std::string> plan = RandomPlan(&rng, kSymbols);
      if (!plan.empty() && rng.Next() % 2 == 0) {
        plan.push_back(plan[rng.Next() % plan.size()]);
      }
      NetworkOptions fifo = JitteryNetwork(seed * kPlans + k);
      NetworkOptions unordered = fifo;
      unordered.fifo_links = false;
      const NetworkOptions* transports[] = {nullptr, &fifo, &unordered};
      for (const NetworkOptions* nopts : transports) {
        obs::MetricsRegistry metrics;
        obs::TraceRecorder tracer;
        obs::GuardProfiler profiler(/*sample_every=*/1);
        GuardSchedulerOptions observers;
        if (observed) {
          observers.metrics = &metrics;
          observers.tracer = &tracer;
          observers.profiler = &profiler;
        }
        std::string world = DigestWorld(&ctx, compiled, parsed.value(), plan,
                                        kSites, nopts, observers);
        for (unsigned char c : world + "\n") {
          digest = (digest ^ c) * 1099511628211ull;
        }
        ++worlds;
      }
    }
  }
  EXPECT_GE(worlds, 1000u);
  EXPECT_EQ(digest, 9436000748341048789ull) << worlds << " worlds";
}

// Behaviour pinned across refactors of the runtime: an FNV-1a digest over
// the worlds of a seeded random corpus. Its specs carry triggerable,
// nondelayable and nonrejectable events and put agents on shared sites;
// its plans sometimes attempt a literal twice. Each plan runs co-located,
// over a FIFO jittered Network and over a non-FIFO one. A change that
// moves any history, flag, decision, message count or violation count
// changes the digest; the constant was computed by this test before event
// actors lost their heard-set fast path. Every world runs twice, bare and
// observed (a registry, a tracer and a profiler timing every check
// installed), and both runs give the constant: observing a run does not
// move it onto another path.
TEST(SymbolicCacheTest, RandomWorldsMatchPinnedDigest) {
  for (bool observed : {false, true}) {
    SCOPED_TRACE(observed ? "observed" : "bare");
    ExpectPinnedDigest(observed);
  }
}

// ------------------------------------- state space vs reference walks

// StateSpace::Successor restated over the plain walks: uncached
// ReduceGuard and the recursive CommitNow.
CheckState ReferenceSuccessor(WorkflowContext* ctx, const StateSpace& space,
                              const CheckState& s, EventLiteral lit) {
  GuardArena* arena = ctx->guards();
  size_t i = space.SymbolIndex(lit.symbol());
  Announcement occurred{AnnouncementKind::kOccurred, lit};
  CheckState child;
  child.decided = s.decided | (1ull << i);
  child.positive = s.positive | (lit.complemented() ? 0 : 1ull << i);
  child.guards.assign(s.guards.size(), nullptr);
  child.commitment = arena->False();
  if (space.GuardAlive(s)) {
    const Guard* frozen =
        CommitNow(arena, s.guards[2 * i + lit.complemented()]);
    child.commitment =
        ReduceGuard(arena, ctx->residuator(),
                    arena->And(s.commitment, frozen), occurred);
    for (size_t j = 0; j < space.symbols().size(); ++j) {
      if (child.commitment->IsFalse() || (child.decided >> j & 1)) continue;
      for (size_t slot : {2 * j, 2 * j + 1}) {
        child.guards[slot] =
            ReduceGuard(arena, ctx->residuator(), s.guards[slot], occurred);
      }
    }
  }
  for (const Expr* r : s.residuals) {
    child.residuals.push_back(ctx->residuator()->Residuate(r, lit));
  }
  return child;
}

// Along random traces, the model checker's transition engine (memoized
// reduction, memoized CommitNow, the stored PermitsNow verdict) must
// produce exactly the states, firing commitments and optimistic verdicts
// the plain walks produce; the optimistic one folds the compiled guard
// along the trace with the plain ReduceGuard and asks the recursive
// EvaluateNow.
TEST(SymbolicCacheTest, StateSpaceMatchesReferenceWalks) {
  constexpr size_t kSymbols = 4;
  size_t steps = 0;
  size_t enabled = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    WorkflowContext ctx;
    CompiledWorkflow compiled =
        RandomCompiled(&ctx, seed * 977 + 11, kSymbols, 2);
    if (compiled.impossible()) continue;
    StateSpace space(&ctx, compiled);
    Rng rng(seed * 41 + 9);
    for (int walk = 0; walk < 8; ++walk) {
      CheckState s = space.Initial();
      Trace u;
      while (!space.Maximal(s)) {
        std::vector<EventLiteral> open;
        for (size_t i = 0; i < space.symbols().size(); ++i) {
          if (s.decided >> i & 1) continue;
          for (bool complemented : {false, true}) {
            EventLiteral lit = space.LiteralAt(i, complemented);
            open.push_back(lit);
            if (!space.GuardAlive(s)) {
              ASSERT_FALSE(space.EnabledNow(s, lit)) << "seed " << seed;
              continue;
            }
            ASSERT_EQ(space.Commitment(s, lit),
                      CommitNow(ctx.guards(), s.guards[2 * i + complemented]))
                << "seed " << seed;
            const Guard* folded = compiled.GuardFor(lit);
            for (EventLiteral occurred : u) {
              folded = ReduceGuard(ctx.guards(), ctx.residuator(), folded,
                                   {AnnouncementKind::kOccurred, occurred});
            }
            bool now = EvaluateNow(folded);
            ASSERT_EQ(space.EnabledNow(s, lit), now)
                << "seed " << seed << " " << ctx.alphabet()->LiteralName(lit)
                << " after " << TraceToString(u, *ctx.alphabet());
            // Firing an enabled literal adds no obligation.
            if (now) {
              ASSERT_TRUE(space.Commitment(s, lit)->IsTrue());
            }
            enabled += now;
          }
        }
        EventLiteral lit = open[rng.Next() % open.size()];
        CheckState next = space.Successor(s, lit);
        ASSERT_TRUE(next == ReferenceSuccessor(&ctx, space, s, lit))
            << "seed " << seed << " after "
            << ctx.alphabet()->LiteralName(lit);
        s = std::move(next);
        u.push_back(lit);
        ++steps;
      }
    }
  }
  EXPECT_GT(steps, 2000u);
  EXPECT_GT(enabled, 1000u);
}

// ----------------------------------------------------- counter plumbing

// The hit/miss tallies behind the observability surface (the shards'
// cache gauges, GuardProfiler TopK reports, cdes-top, BENCH json) must
// actually move.
TEST(SymbolicCacheTest, CacheCountersReportTraffic) {
  WorkflowContext ctx;
  CompiledWorkflow compiled = RandomCompiled(&ctx, 1, 4, 2);
  for (uint64_t seed = 2; compiled.impossible() && seed <= 50; ++seed) {
    compiled = RandomCompiled(&ctx, seed, 4, 2);
  }
  ASSERT_FALSE(compiled.impossible());
  ReductionCache cache;
  const Guard* g = compiled.GuardFor(
      EventLiteral::Positive(*compiled.symbols().begin()));
  Announcement ann{AnnouncementKind::kOccurred,
                   EventLiteral::Positive(*compiled.symbols().rbegin())};
  uint64_t before = ctx.residuator()->cache_hits() +
                    ctx.residuator()->cache_misses();
  ReduceGuard(ctx.guards(), ctx.residuator(), g, ann, &cache);
  ReduceGuard(ctx.guards(), ctx.residuator(), g, ann, &cache);
  // The repeated reduction hits the memo wherever the first one missed.
  if (cache.misses() > 0) {
    EXPECT_GT(cache.hits(), 0u);
  }
  // Any ◇-bearing guard reduction residuates, so the residuator tallies
  // grow too (≥, not ==: the compile itself may have residuated already).
  EXPECT_GE(ctx.residuator()->cache_hits() + ctx.residuator()->cache_misses(),
            before);
}

}  // namespace
}  // namespace cdes
