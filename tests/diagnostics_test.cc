#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "obs/profiler.h"
#include "obs/trace_recorder.h"
#include "sched/diagnostics.h"
#include "spec/parser.h"

namespace cdes {
namespace {

struct DiagWorld {
  explicit DiagWorld(const char* spec_text,
                     obs::TraceRecorder* tracer = nullptr,
                     obs::GuardProfiler* profiler = nullptr) {
    auto parsed = ParseWorkflow(&ctx, spec_text);
    CDES_CHECK(parsed.ok()) << parsed.status();
    workflow = std::move(parsed).value();
    NetworkOptions nopts;
    nopts.base_latency = 100;
    network = std::make_unique<Network>(&sim, 4, nopts);
    GuardSchedulerOptions sopts;
    sopts.tracer = tracer;
    sopts.profiler = profiler;
    sched = std::make_unique<GuardScheduler>(&ctx, workflow, network.get(),
                                             sopts);
  }

  void AttemptAndRun(const std::string& name) {
    auto lit = ctx.alphabet()->ParseLiteral(name);
    CDES_CHECK(lit.ok());
    sched->Attempt(lit.value(), AttemptCallback());
    sim.Run();
  }

  WorkflowContext ctx;
  Simulator sim;
  std::unique_ptr<Network> network;
  ParsedWorkflow workflow;
  std::unique_ptr<GuardScheduler> sched;
};

constexpr char kChainSpec[] = R"(
workflow ch {
  event a;
  event b;
  event c;
  dep d: a . b . c;
}
)";

TEST(DiagnosticsTest, NothingParked) {
  DiagWorld w(kChainSpec);
  EXPECT_TRUE(DiagnoseParked(&w.ctx, w.sched.get()).empty());
  EXPECT_EQ(DiagnosisToString({}, *w.ctx.alphabet()), "no parked attempts\n");
}

TEST(DiagnosticsTest, ReportsWaitSetOfParkedEvent) {
  DiagWorld w(kChainSpec);
  w.AttemptAndRun("c");  // parks: needs a then b first
  std::vector<ParkedDiagnosis> diagnoses =
      DiagnoseParked(&w.ctx, w.sched.get());
  ASSERT_EQ(diagnoses.size(), 1u);
  EXPECT_EQ(w.ctx.alphabet()->LiteralName(diagnoses[0].literal), "c");
  EXPECT_FALSE(diagnoses[0].doomed);
  // The wait set names a and b (the residual a.b under ◇).
  std::string rendered =
      DiagnosisToString(diagnoses, *w.ctx.alphabet());
  EXPECT_NE(rendered.find("parked c"), std::string::npos);
  EXPECT_NE(rendered.find("a"), std::string::npos);
  EXPECT_NE(rendered.find("b"), std::string::npos);
}

TEST(DiagnosticsTest, ParkedEventClearsAfterUnblocking) {
  // 2-chain e.f: f parks on □e; attempting e resolves through the promise
  // handshake (e needs ◇f, parked f grants it) and both fire.
  DiagWorld w(R"(
workflow ch2 {
  event e;
  event f;
  dep d: e . f;
}
)");
  w.AttemptAndRun("f");
  EXPECT_EQ(DiagnoseParked(&w.ctx, w.sched.get()).size(), 1u);
  w.AttemptAndRun("e");
  EXPECT_TRUE(DiagnoseParked(&w.ctx, w.sched.get()).empty());
  EXPECT_TRUE(w.sched->HistoryConsistent(true));
}

TEST(DiagnosticsTest, ThreeChainResolvesThroughOrderedPromises) {
  // All of a, b, c attempted out of order under a·b·c. a needs ◇(b·c) —
  // an *ordered* eventuality that single promises cannot certify. The
  // ordered-promise protocol resolves it: c promises b (assuming b's
  // implied □a), b promises a and forwards c's promise with its
  // after-set {a, b}; a's ◇(b·c) discharges because every after-consistent
  // linearization of the promised events satisfies b·c. Everything fires,
  // in dependency order.
  DiagWorld w(kChainSpec);
  w.AttemptAndRun("b");
  w.AttemptAndRun("c");
  w.AttemptAndRun("a");
  EXPECT_TRUE(DiagnoseParked(&w.ctx, w.sched.get()).empty());
  EXPECT_EQ(TraceToString(w.sched->history(), *w.ctx.alphabet()),
            "<a b c>");
  EXPECT_TRUE(w.sched->HistoryConsistent(true));

  // Causal order flows through as well.
  DiagWorld causal(kChainSpec);
  causal.AttemptAndRun("a");
  causal.AttemptAndRun("b");
  causal.AttemptAndRun("c");
  EXPECT_TRUE(DiagnoseParked(&causal.ctx, causal.sched.get()).empty());
  EXPECT_TRUE(causal.sched->HistoryConsistent(true));
}

TEST(DiagnosticsTest, UnorderedDiamondPairDoesNotDischarge) {
  // ◇(b·c) must NOT discharge from unordered promises: with dependency
  // b + c (either, unordered) there is no after-constraint between them,
  // so an event needing the *ordered* ◇(b·c) keeps waiting.
  DiagWorld w(R"(
workflow mix {
  event a;
  event b;
  event c;
  dep order_after_a: ~a + b . c;   # if a occurs, b then c must follow
}
)");
  // b and c parked? No — their guards under this dependency are
  // permissive until a occurs; attempt a first: it parks on ◇(b·c).
  std::vector<Decision> a_decisions;
  auto lit = w.ctx.alphabet()->ParseLiteral("a");
  ASSERT_TRUE(lit.ok());
  w.sched->Attempt(lit.value(), [&](Decision d) { a_decisions.push_back(d); });
  w.sim.Run();
  EXPECT_EQ(a_decisions.back(), Decision::kParked);
  // b then c occur (their guards allow it); their announcements discharge
  // the ordered residual step by step and a fires.
  w.AttemptAndRun("b");
  w.AttemptAndRun("c");
  EXPECT_EQ(a_decisions.back(), Decision::kAccepted);
  EXPECT_TRUE(w.sched->HistoryConsistent(true));
}

TEST(DiagnosticsTest, DoomedWhenNeededEventForeclosed) {
  // c parks needing □b (chain b.c). We then foreclose b out of band
  // (RestoreOccurrence models a decision whose announcement has not yet
  // reached c): the diagnosis flags the parked attempt as doomed. Note
  // that synthesized guards make this state hard to reach organically —
  // the guard on ~b itself demands ◇~c while c is parked — which is the
  // model checker's ¬-race freedom (CL024) showing up in the small.
  DiagWorld w(R"(
workflow ch2 {
  event b;
  event c;
  dep d: b . c;
}
)");
  w.AttemptAndRun("c");
  SymbolId b = w.ctx.alphabet()->Find("b");
  ASSERT_NE(b, kInvalidSymbol);
  w.sched->actor(b)->RestoreOccurrence(EventLiteral::Complement(b));
  std::vector<ParkedDiagnosis> diagnoses =
      DiagnoseParked(&w.ctx, w.sched.get());
  ASSERT_EQ(diagnoses.size(), 1u);
  EXPECT_TRUE(diagnoses[0].doomed);
  EXPECT_NE(DiagnosisToString(diagnoses, *w.ctx.alphabet()).find("[doomed]"),
            std::string::npos);
}

TEST(DiagnosticsTest, DoomedDiagnosisEmitsTraceInstant) {
  // Same foreclosure scenario as above, with the tracer installed: the
  // diagnosis completes the lifecycle taxonomy (attempt → parked → doomed)
  // by stamping a "doomed" instant on the parked actor's lane.
  obs::TraceRecorder recorder;
  DiagWorld w(R"(
workflow ch2 {
  event b;
  event c;
  dep d: b . c;
}
)",
              &recorder);
  w.AttemptAndRun("c");
  EXPECT_EQ(recorder.CountEvents(obs::SpanCategory::kLifecycle, "attempt c",
                                 obs::TraceEvent::Phase::kInstant),
            1u);
  EXPECT_EQ(recorder.CountEvents(obs::SpanCategory::kLifecycle, "parked c",
                                 obs::TraceEvent::Phase::kAsyncBegin),
            1u);
  EXPECT_EQ(recorder.CountEvents(obs::SpanCategory::kLifecycle, "doomed",
                                 obs::TraceEvent::Phase::kInstant),
            0u);
  SymbolId b = w.ctx.alphabet()->Find("b");
  ASSERT_NE(b, kInvalidSymbol);
  w.sched->actor(b)->RestoreOccurrence(EventLiteral::Complement(b));
  std::vector<ParkedDiagnosis> diagnoses =
      DiagnoseParked(&w.ctx, w.sched.get());
  ASSERT_EQ(diagnoses.size(), 1u);
  ASSERT_TRUE(diagnoses[0].doomed);
  EXPECT_EQ(recorder.CountEvents(obs::SpanCategory::kLifecycle, "doomed c",
                                 obs::TraceEvent::Phase::kInstant),
            1u);
  // Without the tracer the same diagnosis records nothing extra — the
  // doomed instant rides on DiagnoseParked, it never self-installs.
  DiagWorld plain(R"(
workflow ch2 {
  event b;
  event c;
  dep d: b . c;
}
)");
  EXPECT_EQ(plain.sched->tracer(), nullptr);
}

TEST(DiagnosticsTest, RendersOneLinePerParkedAttempt) {
  DiagWorld w(kChainSpec);
  w.AttemptAndRun("c");  // parks waiting on a·b
  w.AttemptAndRun("b");  // parks waiting on a
  std::vector<ParkedDiagnosis> diagnoses =
      DiagnoseParked(&w.ctx, w.sched.get());
  ASSERT_EQ(diagnoses.size(), 2u);
  std::string rendered = DiagnosisToString(diagnoses, *w.ctx.alphabet());
  EXPECT_NE(rendered.find("parked b"), std::string::npos);
  EXPECT_NE(rendered.find("parked c"), std::string::npos);
  EXPECT_EQ(std::count(rendered.begin(), rendered.end(), '\n'), 2);
}

TEST(DiagnosticsTest, NamesHottestGuardSiteWhenProfiled) {
  // Without a profiler the diagnosis carries no site attribution.
  {
    DiagWorld w(kChainSpec);
    w.AttemptAndRun("c");
    std::vector<ParkedDiagnosis> diagnoses =
        DiagnoseParked(&w.ctx, w.sched.get());
    ASSERT_EQ(diagnoses.size(), 1u);
    EXPECT_TRUE(diagnoses[0].hottest_site.empty());
  }
  // With one, the parked line points at the dependency whose guard is
  // burning the evaluations while the event sits parked.
  obs::GuardProfiler profiler(/*sample_every=*/1);
  DiagWorld w(kChainSpec, /*tracer=*/nullptr, &profiler);
  w.AttemptAndRun("c");
  std::vector<ParkedDiagnosis> diagnoses =
      DiagnoseParked(&w.ctx, w.sched.get());
  ASSERT_EQ(diagnoses.size(), 1u);
  EXPECT_NE(diagnoses[0].hottest_site.find("d"), std::string::npos);
  EXPECT_NE(diagnoses[0].hottest_site.find("evals"), std::string::npos);
  std::string rendered = DiagnosisToString(diagnoses, *w.ctx.alphabet());
  EXPECT_NE(rendered.find("hottest guard: d"), std::string::npos);
}

// Introspection reads the guards without counting as profiled work: only
// the actors' firability checks are charged to guard sites.
TEST(DiagnosticsTest, DiagnosisIsNotProfiledWork) {
  obs::GuardProfiler profiler(/*sample_every=*/1);
  DiagWorld w(kChainSpec, /*tracer=*/nullptr, &profiler);
  w.AttemptAndRun("c");
  uint64_t evaluations = profiler.total_evaluations();
  EXPECT_GT(evaluations, 0u);
  EXPECT_EQ(DiagnoseParked(&w.ctx, w.sched.get()).size(), 1u);
  EXPECT_EQ(DiagnoseParked(&w.ctx, w.sched.get()).size(), 1u);
  EXPECT_EQ(profiler.total_evaluations(), evaluations);
}

}  // namespace
}  // namespace cdes
