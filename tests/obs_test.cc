#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algebra/trace.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/chrome_trace.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "obs/prom.h"
#include "sched/automata_scheduler.h"
#include "sched/guard_scheduler.h"
#include "sched/residuation_scheduler.h"
#include "spec/parser.h"

namespace cdes {
namespace {

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, CountersAreGetOrCreateWithStableAddresses) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.counter("x.count");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
  EXPECT_EQ(registry.counter("x.count"), c);
  EXPECT_EQ(registry.counter_count(), 1u);
  registry.gauge("x.depth")->Set(3.5);
  EXPECT_DOUBLE_EQ(registry.gauge("x.depth")->value(), 3.5);
}

TEST(MetricsTest, HistogramBucketsAndStats) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.histogram("lat", {1, 2, 4});
  for (uint64_t v : {0u, 1u, 2u, 3u, 4u, 100u}) h->Observe(v);
  EXPECT_EQ(h->count(), 6u);
  EXPECT_EQ(h->sum(), 110u);
  EXPECT_EQ(h->min(), 0u);
  EXPECT_EQ(h->max(), 100u);
  ASSERT_EQ(h->buckets().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h->buckets()[0], 2u);      // 0, 1
  EXPECT_EQ(h->buckets()[1], 1u);      // 2
  EXPECT_EQ(h->buckets()[2], 2u);      // 3, 4
  EXPECT_EQ(h->buckets()[3], 1u);      // 100 (overflow)
  EXPECT_LE(h->Percentile(0.5), 4u);
  // Same name returns the existing histogram even with different bounds.
  EXPECT_EQ(registry.histogram("lat", {7}), h);
}

TEST(MetricsTest, PercentileEdgeCases) {
  obs::MetricsRegistry registry;
  // An empty histogram reports zeros, never divides by its zero count.
  obs::Histogram* empty = registry.histogram("empty", {1, 2, 4});
  EXPECT_EQ(empty->Percentile(0.5), 0u);
  EXPECT_EQ(empty->min(), 0u);
  EXPECT_EQ(empty->max(), 0u);
  EXPECT_DOUBLE_EQ(empty->Mean(), 0.0);
  // Samples above the top bound land in the overflow bucket; percentiles
  // that resolve there report the observed max, not a fabricated bound.
  obs::Histogram* high = registry.histogram("high", {1, 2, 4});
  high->Observe(100);
  EXPECT_EQ(high->count(), 1u);
  EXPECT_EQ(high->Percentile(0.5), 100u);
  EXPECT_EQ(high->Percentile(0.99), 100u);
  // Out-of-range p clamps instead of reading past the buckets.
  obs::Histogram* h = registry.histogram("clamped", {1, 2, 4});
  h->Observe(1);
  h->Observe(2);
  EXPECT_EQ(h->Percentile(-0.5), h->Percentile(0.0));
  EXPECT_EQ(h->Percentile(1.5), h->Percentile(1.0));
  // A histogram of zeros reports zeros, not its first bucket's bound (as a
  // co-located engine run's sched.decision_latency_us would).
  obs::Histogram* zeros = registry.histogram("zeros", {1, 2, 4});
  for (int i = 0; i < 10; ++i) zeros->Observe(0);
  EXPECT_EQ(zeros->Percentile(0.5), 0u);
  EXPECT_EQ(zeros->Percentile(0.99), 0u);
  EXPECT_EQ(zeros->max(), 0u);
  // A single sample below its bucket's bound is every percentile.
  obs::Histogram* one = registry.histogram("one", {1, 10, 100});
  one->Observe(37);
  EXPECT_EQ(one->Percentile(0.0), 37u);
  EXPECT_EQ(one->Percentile(0.5), 37u);
  EXPECT_EQ(one->Percentile(1.0), 37u);
}

TEST(MetricsTest, HistogramMergeCombinesPerShardSamples) {
  obs::MetricsRegistry a, b;
  obs::Histogram* ha = a.histogram("lat", {1, 2, 4});
  obs::Histogram* hb = b.histogram("lat", {1, 2, 4});
  ha->Observe(0);
  ha->Observe(3);
  hb->Observe(2);
  hb->Observe(100);
  ASSERT_TRUE(ha->MergeFrom(*hb));
  EXPECT_EQ(ha->count(), 4u);
  EXPECT_EQ(ha->sum(), 105u);
  EXPECT_EQ(ha->min(), 0u);
  EXPECT_EQ(ha->max(), 100u);
  ASSERT_EQ(ha->buckets().size(), 4u);
  EXPECT_EQ(ha->buckets()[0], 1u);  // 0
  EXPECT_EQ(ha->buckets()[1], 1u);  // 2
  EXPECT_EQ(ha->buckets()[2], 1u);  // 3
  EXPECT_EQ(ha->buckets()[3], 1u);  // 100 (overflow)
  // Bound-mismatched merges are refused and leave the target untouched.
  obs::Histogram* other = a.histogram("other", {8});
  other->Observe(1);
  EXPECT_FALSE(ha->MergeFrom(*other));
  EXPECT_EQ(ha->count(), 4u);
  EXPECT_EQ(ha->sum(), 105u);
}

TEST(MetricsTest, RegistryMergeFoldsShardRegistries) {
  obs::MetricsRegistry engine, shard;
  engine.counter("events")->Increment(3);
  shard.counter("events")->Increment(4);
  shard.counter("parks")->Increment(1);
  engine.gauge("depth")->Set(1.0);
  shard.gauge("depth")->Set(9.0);
  shard.histogram("lat", {1, 2, 4})->Observe(3);
  engine.histogram("mismatch", {1});
  shard.histogram("mismatch", {5})->Observe(2);
  // Counters add, gauges take the source's value, absent histograms are
  // adopted with the source's bounds; the one bound mismatch is skipped
  // and counted in the return value.
  EXPECT_EQ(engine.MergeFrom(shard), 1u);
  EXPECT_EQ(engine.counter("events")->value(), 7u);
  EXPECT_EQ(engine.counter("parks")->value(), 1u);
  EXPECT_DOUBLE_EQ(engine.gauge("depth")->value(), 9.0);
  EXPECT_EQ(engine.histogram("lat")->count(), 1u);
  EXPECT_EQ(engine.histogram("lat")->bounds(),
            (std::vector<uint64_t>{1, 2, 4}));
  EXPECT_EQ(engine.histogram("mismatch")->count(), 0u);
}

TEST(MetricsTest, ExponentialBoundsDouble) {
  std::vector<uint64_t> bounds = obs::MetricsRegistry::ExponentialBounds(1, 5);
  EXPECT_EQ(bounds, (std::vector<uint64_t>{1, 2, 4, 8, 16}));
}

TEST(MetricsTest, ToJsonIsValidAndDeterministic) {
  obs::MetricsRegistry registry;
  registry.counter("b")->Increment(2);
  registry.counter("a")->Increment(1);
  registry.gauge("g")->Set(1.5);
  registry.histogram("h", {10})->Observe(5);
  std::string json = registry.ToJson();
  EXPECT_EQ(json, registry.ToJson());
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::JsonValue* counters = parsed.value().Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("a"), nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("a")->number(), 1.0);
  const obs::JsonValue* h = parsed.value().Find("histograms");
  ASSERT_NE(h, nullptr);
  ASSERT_NE(h->Find("h"), nullptr);
  EXPECT_DOUBLE_EQ(h->Find("h")->Find("count")->number(), 1.0);
}

// ----------------------------------------------------------------- JSON

TEST(JsonTest, ParsesEscapesAndNesting) {
  auto parsed = obs::ParseJson(
      R"({"s": "a\"bA", "n": [1, -2.5e1, true, null]})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().Find("s")->string(), "a\"bA");
  const auto& arr = parsed.value().Find("n")->array();
  ASSERT_EQ(arr.size(), 4u);
  EXPECT_DOUBLE_EQ(arr[1].number(), -25.0);
  EXPECT_TRUE(arr[2].bool_value());
  EXPECT_TRUE(arr[3].is_null());
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(obs::ParseJson("{").ok());
  EXPECT_FALSE(obs::ParseJson("[1,]").ok());
  EXPECT_FALSE(obs::ParseJson("{} trailing").ok());
  EXPECT_FALSE(obs::ParseJson("'single'").ok());
}

TEST(JsonTest, EscapeHandlesControlCharacters) {
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
}

// ------------------------------------------------------------- Prometheus

TEST(PromTest, GoldenTextExposition) {
  obs::MetricsRegistry registry;
  registry.counter("sched.msgs.announce")->Increment(3);
  registry.gauge("queue.depth")->Set(2.5);
  obs::Histogram* h = registry.histogram("lat.us", {1, 2, 4});
  for (uint64_t v : {0u, 1u, 2u, 3u, 4u, 100u}) h->Observe(v);
  // Exact text: names sanitized to the Prometheus charset with the cdes_
  // prefix, disjoint registry buckets re-expressed cumulatively, and the
  // +Inf bucket equal to _count.
  EXPECT_EQ(obs::PrometheusText(registry),
            "# TYPE cdes_sched_msgs_announce counter\n"
            "cdes_sched_msgs_announce 3\n"
            "# TYPE cdes_queue_depth gauge\n"
            "cdes_queue_depth 2.5\n"
            "# TYPE cdes_lat_us histogram\n"
            "cdes_lat_us_bucket{le=\"1\"} 2\n"
            "cdes_lat_us_bucket{le=\"2\"} 3\n"
            "cdes_lat_us_bucket{le=\"4\"} 5\n"
            "cdes_lat_us_bucket{le=\"+Inf\"} 6\n"
            "cdes_lat_us_sum 110\n"
            "cdes_lat_us_count 6\n");
}

// ---------------------------------------------------------- TraceRecorder

TEST(TraceRecorderTest, AsyncSpansPairByKey) {
  obs::TraceRecorder recorder;
  uint64_t id = recorder.BeginAsync(obs::SpanCategory::kMessage, "msg", "k1",
                                    10, 0, 0);
  EXPECT_NE(id, 0u);
  EXPECT_TRUE(recorder.HasOpenAsync("k1"));
  // Re-opening an open key is refused.
  EXPECT_EQ(recorder.BeginAsync(obs::SpanCategory::kMessage, "msg", "k1", 11,
                                0, 0),
            0u);
  EXPECT_TRUE(recorder.EndAsync("k1", 20, 1, 0));
  EXPECT_FALSE(recorder.HasOpenAsync("k1"));
  EXPECT_FALSE(recorder.EndAsync("k1", 21, 1, 0));
  ASSERT_EQ(recorder.events().size(), 2u);
  EXPECT_EQ(recorder.events()[0].id, recorder.events()[1].id);
  EXPECT_EQ(recorder.events()[0].phase, obs::TraceEvent::Phase::kAsyncBegin);
  EXPECT_EQ(recorder.events()[1].phase, obs::TraceEvent::Phase::kAsyncEnd);
  // The key is reusable after close, with a fresh correlation id.
  uint64_t id2 = recorder.BeginAsync(obs::SpanCategory::kMessage, "msg", "k1",
                                     30, 0, 0);
  EXPECT_NE(id2, 0u);
  EXPECT_NE(id2, id);
}

TEST(TraceRecorderTest, CountEventsFiltersByCategoryPrefixAndPhase) {
  obs::TraceRecorder recorder;
  recorder.Instant(obs::SpanCategory::kLifecycle, "occur a", 1, 0, 0);
  recorder.Instant(obs::SpanCategory::kLifecycle, "occur b", 2, 0, 1);
  recorder.Instant(obs::SpanCategory::kMessage, "occur c", 3, 0, 0);
  recorder.Complete(obs::SpanCategory::kLifecycle, "occurrence window", 1, 5,
                    0, 0);
  EXPECT_EQ(recorder.CountEvents(obs::SpanCategory::kLifecycle, "occur",
                                 obs::TraceEvent::Phase::kInstant),
            2u);
  EXPECT_EQ(recorder.CountEvents(obs::SpanCategory::kMessage, "occur",
                                 obs::TraceEvent::Phase::kInstant),
            1u);
  EXPECT_EQ(recorder.CountEvents(obs::SpanCategory::kLifecycle, "occur",
                                 obs::TraceEvent::Phase::kComplete),
            1u);
}

TEST(TraceRecorderTest, RingCapacityBoundsRetainedEvents) {
  obs::MetricsRegistry metrics;
  obs::TraceRecorder recorder;
  recorder.set_capacity(4);
  recorder.AttachMetrics(&metrics);
  for (uint64_t ts = 1; ts <= 6; ++ts) {
    recorder.Instant(obs::SpanCategory::kSim, "tick", ts, 0, 0);
  }
  // The ring overwrote the two oldest events and counted them, both in
  // dropped_events() and in the attached registry counter.
  EXPECT_EQ(recorder.events().size(), 4u);
  EXPECT_EQ(recorder.dropped_events(), 2u);
  EXPECT_EQ(metrics.counter("trace.dropped_events")->value(), 2u);
  std::vector<uint64_t> kept;
  for (const obs::TraceEvent& e : recorder.events()) kept.push_back(e.ts);
  std::sort(kept.begin(), kept.end());
  EXPECT_EQ(kept, (std::vector<uint64_t>{3, 4, 5, 6}));
  // A wrapped ring is in ring order, not chronological; the exporter must
  // still produce a globally ts-sorted trace.
  auto parsed = obs::ParseJson(obs::ChromeTraceJson(recorder));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  std::vector<double> ts;
  for (const obs::JsonValue& e : parsed.value().Find("traceEvents")->array()) {
    if (e.Find("ph")->string() != "M") ts.push_back(e.Find("ts")->number());
  }
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));

  // Capacity 0 removes the bound.
  obs::TraceRecorder unbounded;
  unbounded.set_capacity(0);
  for (uint64_t t = 0; t < 10; ++t) {
    unbounded.Instant(obs::SpanCategory::kSim, "tick", t, 0, 0);
  }
  EXPECT_EQ(unbounded.events().size(), 10u);
  EXPECT_EQ(unbounded.dropped_events(), 0u);
}

// ------------------------------------------------------- Chrome exporter

TEST(ChromeTraceTest, ExportsWellFormedSortedJson) {
  obs::TraceRecorder recorder;
  recorder.NameProcess(0, "site 0");
  recorder.NameLane(0, 7, "actor e");
  // Recorded out of ts order on purpose: the exporter must sort.
  recorder.Instant(obs::SpanCategory::kLifecycle, "late", 50, 0, 7,
                   {{"k", "v"}});
  recorder.Instant(obs::SpanCategory::kLifecycle, "early", 10, 0, 7);
  recorder.Complete(obs::SpanCategory::kSim, "phase", 20, 15, 0, 7);
  std::string json = obs::ChromeTraceJson(recorder);
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::JsonValue* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<double> ts;
  bool saw_process_name = false, saw_thread_name = false;
  for (const obs::JsonValue& e : events->array()) {
    const std::string& ph = e.Find("ph")->string();
    if (ph == "M") {
      const std::string& name = e.Find("name")->string();
      saw_process_name |= name == "process_name";
      saw_thread_name |= name == "thread_name";
      continue;
    }
    ts.push_back(e.Find("ts")->number());
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_thread_name);
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
  // The complete span kept its duration, the instant its args.
  EXPECT_NE(json.find("\"dur\": 15"), std::string::npos);
  EXPECT_NE(json.find("\"k\": \"v\""), std::string::npos);
}

TEST(ChromeTraceTest, FlowEventsCarryIdAndBindToEnclosingSlice) {
  obs::TraceRecorder recorder;
  recorder.Complete(obs::SpanCategory::kSim, "submit 7", 10, 2, 9, 0);
  recorder.FlowStart(obs::SpanCategory::kSim, "instance", 7, 10, 9, 0);
  recorder.Complete(obs::SpanCategory::kSim, "instance 7", 40, 5, 1, 7);
  recorder.FlowEnd(obs::SpanCategory::kSim, "instance", 7, 42, 1, 7);
  auto parsed = obs::ParseJson(obs::ChromeTraceJson(recorder));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::JsonValue* start = nullptr;
  const obs::JsonValue* end = nullptr;
  for (const obs::JsonValue& e : parsed.value().Find("traceEvents")->array()) {
    if (e.Find("ph")->string() == "s") start = &e;
    if (e.Find("ph")->string() == "f") end = &e;
  }
  ASSERT_NE(start, nullptr);
  ASSERT_NE(end, nullptr);
  // Viewers join the pair on (name, cat, id); the end binds to the
  // enclosing slice ("bp": "e"), so the arrow lands on the span the
  // flow terminates inside rather than whatever slice starts next.
  EXPECT_DOUBLE_EQ(start->Find("id")->number(), 7.0);
  EXPECT_DOUBLE_EQ(end->Find("id")->number(), 7.0);
  EXPECT_EQ(start->Find("name")->string(), end->Find("name")->string());
  EXPECT_EQ(start->Find("cat")->string(), end->Find("cat")->string());
  ASSERT_NE(end->Find("bp"), nullptr);
  EXPECT_EQ(end->Find("bp")->string(), "e");
  EXPECT_EQ(start->Find("bp"), nullptr);
}

// --------------------------------------------------------- GuardProfiler

TEST(GuardProfilerTest, SitesDedupAndAccumulate) {
  obs::GuardProfiler profiler(/*sample_every=*/1);
  profiler.set_source("travel.wf");
  SourceLocation loc;
  loc.line = 15;
  loc.column = 3;
  obs::GuardProfiler::Site* site = profiler.RegisterSite("d1", "s_book", loc);
  ASSERT_NE(site, nullptr);
  // Same (dependency, event) key → the same shared handle, so shards
  // compiling the same spec pool their counts into one site.
  EXPECT_EQ(profiler.RegisterSite("d1", "s_book", loc), site);
  EXPECT_EQ(profiler.site_count(), 1u);
  EXPECT_TRUE(profiler.BeginEvaluation(site));  // sample_every=1: always
  profiler.Record(site, /*residuation_steps=*/5, /*nodes_visited=*/7,
                  /*wall_ns=*/100, /*sampled=*/true);
  std::vector<obs::GuardSiteStats> snap = profiler.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].dependency, "d1");
  EXPECT_EQ(snap[0].event, "s_book");
  EXPECT_EQ(snap[0].source, "travel.wf:15:3");
  EXPECT_EQ(snap[0].evaluations, 1u);
  EXPECT_EQ(snap[0].residuation_steps, 5u);
  EXPECT_EQ(snap[0].nodes_visited, 7u);
  EXPECT_DOUBLE_EQ(snap[0].EstimatedWallNs(), 100.0);
  EXPECT_EQ(profiler.total_evaluations(), 1u);
}

TEST(GuardProfilerTest, SamplingTimesEveryNthEvaluation) {
  obs::GuardProfiler profiler(/*sample_every=*/4);
  obs::GuardProfiler::Site* site =
      profiler.RegisterSite("d", "e", SourceLocation{});
  size_t sampled = 0;
  for (int i = 0; i < 8; ++i) {
    bool timed = profiler.BeginEvaluation(site);
    if (timed) ++sampled;
    profiler.Record(site, 1, 1, /*wall_ns=*/100, timed);
  }
  EXPECT_EQ(sampled, 2u);  // evaluations 0 and 4
  std::vector<obs::GuardSiteStats> snap = profiler.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].evaluations, 8u);
  EXPECT_EQ(snap[0].sampled_evaluations, 2u);
  EXPECT_EQ(snap[0].source, "?");  // unknown location, no source file
  // 2 samples × 100ns each, scaled back up to all 8 evaluations.
  EXPECT_DOUBLE_EQ(snap[0].EstimatedWallNs(), 800.0);
}

TEST(GuardProfilerTest, RankingReportsAndCollapsedStacks) {
  obs::GuardProfiler profiler(/*sample_every=*/1);
  SourceLocation loc;
  loc.line = 2;
  loc.column = 1;
  obs::GuardProfiler::Site* cold = profiler.RegisterSite("d_cold", "a", loc);
  obs::GuardProfiler::Site* hot = profiler.RegisterSite("d_hot", "a", loc);
  profiler.BeginEvaluation(cold);
  profiler.Record(cold, 1, 1, 10, true);
  for (int i = 0; i < 3; ++i) {
    profiler.BeginEvaluation(hot);
    profiler.Record(hot, 4, 4, 500, true);
  }
  std::vector<obs::GuardSiteStats> top = profiler.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].dependency, "d_hot");
  auto hottest = profiler.HottestFor("a");
  ASSERT_TRUE(hottest.has_value());
  EXPECT_EQ(hottest->dependency, "d_hot");
  EXPECT_FALSE(profiler.HottestFor("zzz").has_value());
  // The report table carries the source attribution.
  std::string report = profiler.TopKReport(10);
  EXPECT_NE(report.find("d_hot"), std::string::npos);
  EXPECT_NE(report.find("2:1"), std::string::npos);
  // Collapsed stacks are "source;dependency;event weight" lines weighted
  // by estimated wall ns, hottest first (flamegraph.pl input).
  std::string collapsed = profiler.CollapsedStacks();
  EXPECT_TRUE(StartsWith(collapsed, "2:1;d_hot;a 1500\n")) << collapsed;
  EXPECT_NE(collapsed.find("2:1;d_cold;a 10\n"), std::string::npos);
}

// ----------------------------------------------------------- Integration

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

struct ObsWorld {
  ObsWorld() {
    auto parsed = ParseWorkflow(&ctx, kTravelSpec);
    CDES_CHECK(parsed.ok()) << parsed.status();
    workflow = std::move(parsed).value();
    NetworkOptions nopts;
    nopts.base_latency = 1000;
    nopts.metrics = &metrics;
    nopts.tracer = &recorder;
    network = std::make_unique<Network>(&sim, 2, nopts);
  }

  void Drive(Scheduler* sched, const std::vector<std::string>& script) {
    for (const std::string& name : script) {
      auto lit = ctx.alphabet()->ParseLiteral(name);
      CDES_CHECK(lit.ok()) << lit.status();
      sched->Attempt(lit.value(), AttemptCallback());
      sim.Run();
    }
  }

  WorkflowContext ctx;
  ParsedWorkflow workflow;
  Simulator sim;
  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  std::unique_ptr<Network> network;
};

TEST(ObsIntegrationTest, TravelSpansReconcileWithGuardSchedulerStats) {
  ObsWorld w;
  w.sim.AttachMetrics(&w.metrics);
  GuardSchedulerOptions sopts;
  sopts.metrics = &w.metrics;
  sopts.tracer = &w.recorder;
  GuardScheduler sched(&w.ctx, w.workflow, w.network.get(), sopts);
  w.Drive(&sched, {"s_buy", "c_book", "c_buy"});
  ASSERT_TRUE(sched.HistoryConsistent());

  // Every occurrence in history() has exactly one "occur" instant.
  EXPECT_EQ(w.recorder.CountEvents(obs::SpanCategory::kLifecycle, "occur ",
                                   obs::TraceEvent::Phase::kInstant),
            sched.history().size());
  // Registry counters are the ground truth behind stats(): both views and
  // the traced send instants must reconcile exactly.
  GuardSchedulerStats stats = sched.stats();
  EXPECT_EQ(w.metrics.counter("sched.msgs.announce")->value(),
            stats.announcements);
  EXPECT_EQ(w.metrics.counter("sched.msgs.promise")->value(), stats.promises);
  EXPECT_EQ(w.metrics.counter("sched.msgs.promise_request")->value(),
            stats.promise_requests);
  EXPECT_EQ(w.metrics.counter("sched.msgs.trigger")->value(), stats.triggers);
  EXPECT_EQ(w.recorder.CountEvents(obs::SpanCategory::kMessage, "announce ",
                                   obs::TraceEvent::Phase::kInstant),
            stats.announcements);
  EXPECT_EQ(w.recorder.CountEvents(obs::SpanCategory::kMessage, "trigger ",
                                   obs::TraceEvent::Phase::kInstant),
            stats.triggers);
  EXPECT_EQ(w.recorder.CountEvents(obs::SpanCategory::kPromise, "promise ",
                                   obs::TraceEvent::Phase::kInstant),
            stats.promises);
  // Attempts: 3 scripted; occurrences: history. The network reported in
  // too, and the simulator stepped at least once per message.
  EXPECT_EQ(w.metrics.counter("sched.attempts")->value(), 3u);
  EXPECT_EQ(w.metrics.counter("sched.occurrences")->value(),
            sched.history().size());
  EXPECT_EQ(w.metrics.counter("net.messages")->value(),
            w.network->stats().messages);
  EXPECT_GE(w.metrics.counter("sim.steps")->value(),
            w.network->stats().messages);

  // The exported Chrome trace is valid JSON with globally sorted ts.
  auto parsed = obs::ParseJson(obs::ChromeTraceJson(w.recorder));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  std::vector<double> ts;
  for (const obs::JsonValue& e : parsed.value().Find("traceEvents")->array()) {
    if (e.Find("ph")->string() != "M") ts.push_back(e.Find("ts")->number());
  }
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
  EXPECT_EQ(ts.size(), w.recorder.events().size());
}

TEST(ObsIntegrationTest, LifecycleInstrumentationIsOffWithoutObservers) {
  // No metrics/tracer installed: the scheduler still serves stats() and
  // records its lifecycle counters in its private registry, but records no
  // lifecycle histograms or spans.
  WorkflowContext ctx;
  auto parsed = ParseWorkflow(&ctx, kTravelSpec);
  ASSERT_TRUE(parsed.ok());
  Simulator sim;
  NetworkOptions nopts;
  nopts.base_latency = 1000;
  Network net(&sim, 2, nopts);
  GuardScheduler sched(&ctx, parsed.value(), &net);
  auto lit = ctx.alphabet()->ParseLiteral("s_buy");
  ASSERT_TRUE(lit.ok());
  sched.Attempt(lit.value(), AttemptCallback());
  sim.Run();
  EXPECT_EQ(sched.tracer(), nullptr);
  ASSERT_NE(sched.metrics(), nullptr);
  EXPECT_GT(sched.stats().total(), 0u);
  EXPECT_GT(sched.metrics()->counter("sched.decisions.accepted")->value(), 0u);
  EXPECT_EQ(sched.metrics()->histogram_count(), 0u);
}

TEST(ObsIntegrationTest, CentralizedSchedulersReportSameTaxonomy) {
  {
    ObsWorld w;
    ResiduationScheduler sched(&w.ctx, w.workflow, w.network.get(),
                               /*center_site=*/0, /*message_bytes=*/48,
                               &w.metrics, &w.recorder);
    w.Drive(&sched, {"s_buy", "s_book", "c_book", "c_buy"});
    EXPECT_EQ(w.metrics.counter("sched.occurrences")->value(),
              sched.history().size());
    EXPECT_EQ(w.recorder.CountEvents(obs::SpanCategory::kLifecycle, "occur ",
                                     obs::TraceEvent::Phase::kInstant),
              sched.history().size());
    EXPECT_EQ(w.metrics.counter("sched.attempts")->value(), 4u);
    EXPECT_EQ(w.metrics.counter("sched.decisions.accepted")->value(),
              sched.history().size());
  }
  {
    ObsWorld w;
    AutomataScheduler sched(&w.ctx, w.workflow, w.network.get(),
                            /*center_site=*/0, /*message_bytes=*/48,
                            &w.metrics, &w.recorder);
    w.Drive(&sched, {"s_buy", "s_book", "c_book", "c_buy"});
    EXPECT_EQ(w.metrics.counter("sched.occurrences")->value(),
              sched.history().size());
    EXPECT_EQ(w.recorder.CountEvents(obs::SpanCategory::kLifecycle, "occur ",
                                     obs::TraceEvent::Phase::kInstant),
              sched.history().size());
  }
}

TEST(ObsIntegrationTest, ParkedWindowOpensAndClosesAroundDecision) {
  ObsWorld w;
  GuardSchedulerOptions sopts;
  sopts.metrics = &w.metrics;
  sopts.tracer = &w.recorder;
  GuardScheduler sched(&w.ctx, w.workflow, w.network.get(), sopts);
  std::vector<Decision> decisions;
  auto lit = w.ctx.alphabet()->ParseLiteral("c_buy");
  ASSERT_TRUE(lit.ok());
  // c_buy needs c_book first: it parks.
  sched.Attempt(lit.value(), [&](Decision d) { decisions.push_back(d); });
  w.sim.Run();
  ASSERT_EQ(decisions.back(), Decision::kParked);
  EXPECT_EQ(w.recorder.CountEvents(obs::SpanCategory::kLifecycle, "parked ",
                                   obs::TraceEvent::Phase::kAsyncBegin),
            1u);
  EXPECT_EQ(w.recorder.CountEvents(obs::SpanCategory::kLifecycle, "parked ",
                                   obs::TraceEvent::Phase::kAsyncEnd),
            0u);
  // c_book also parks transiently on its ◇(c_buy + s_cancel) guard before
  // the promise handshake resolves it, so assert on c_buy's spans by name.
  w.Drive(&sched, {"c_book"});
  ASSERT_EQ(decisions.back(), Decision::kAccepted);
  EXPECT_EQ(w.recorder.CountEvents(obs::SpanCategory::kLifecycle,
                                   "parked c_buy",
                                   obs::TraceEvent::Phase::kAsyncEnd),
            1u);
  EXPECT_EQ(w.recorder.CountEvents(obs::SpanCategory::kLifecycle,
                                   "enabled c_buy",
                                   obs::TraceEvent::Phase::kInstant),
            1u);
  EXPECT_GE(w.metrics.histogram("sched.decision_latency_us")->count(), 1u);
  EXPECT_GE(w.metrics.counter("sched.parks")->value(), 1u);
}

TEST(ObsIntegrationTest, ProfiledSchedulerMatchesUnprofiledRun) {
  const std::vector<std::string> script = {"s_buy", "c_book", "c_buy"};
  auto run = [&script](obs::GuardProfiler* profiler) {
    ObsWorld w;
    GuardSchedulerOptions sopts;
    sopts.profiler = profiler;
    GuardScheduler sched(&w.ctx, w.workflow, w.network.get(), sopts);
    w.Drive(&sched, script);
    CDES_CHECK(sched.HistoryConsistent());
    const ReductionCache& cache = *w.ctx.reduction_cache();
    return StrCat(TraceToString(sched.history(), *w.ctx.alphabet()),
                  " | reduction cache ", cache.hits(), " hits ",
                  cache.misses(), " misses");
  };
  obs::GuardProfiler profiler(/*sample_every=*/1);
  // Profiling observes the production path instead of forking it: the
  // same history, and the same reduction-cache traffic.
  EXPECT_EQ(run(&profiler), run(nullptr));
  // And the profiler actually saw the run: sites registered at Install,
  // evaluations recorded at firability checks, attributable to real events.
  EXPECT_GT(profiler.site_count(), 0u);
  EXPECT_GT(profiler.total_evaluations(), 0u);
  auto hottest = profiler.HottestFor("c_buy");
  ASSERT_TRUE(hottest.has_value());
  EXPECT_GT(hottest->evaluations, 0u);
}

TEST(ObsIntegrationTest, MessageFlowsPairSendToAssimilation) {
  ObsWorld w;
  GuardSchedulerOptions sopts;
  sopts.metrics = &w.metrics;
  sopts.tracer = &w.recorder;
  sopts.trace_id = 42;
  GuardScheduler sched(&w.ctx, w.workflow, w.network.get(), sopts);
  w.Drive(&sched, {"s_buy", "c_book", "c_buy"});
  ASSERT_TRUE(sched.HistoryConsistent());
  // Every runtime message carries a fresh span id: its send is a flow
  // origin and its delivery the matching end, joined on (name, id).
  std::set<std::pair<std::string, uint64_t>> starts, ends;
  for (const obs::TraceEvent& e : w.recorder.events()) {
    if (e.category != obs::SpanCategory::kMessage) continue;
    if (e.phase == obs::TraceEvent::Phase::kFlowStart) {
      EXPECT_TRUE(starts.emplace(e.name, e.id).second) << e.name;
    } else if (e.phase == obs::TraceEvent::Phase::kFlowEnd) {
      EXPECT_TRUE(ends.emplace(e.name, e.id).second) << e.name;
    }
  }
  EXPECT_FALSE(starts.empty());
  EXPECT_EQ(starts, ends);
  // Each delivery also drops an "assimilate <literal>" instant stamped
  // with the trace id, so per-instance filtering works in the viewer.
  size_t assimilates = 0;
  for (const obs::TraceEvent& e : w.recorder.events()) {
    if (e.phase != obs::TraceEvent::Phase::kInstant ||
        !StartsWith(e.name, "assimilate ")) {
      continue;
    }
    ++assimilates;
    bool stamped = false;
    for (const auto& [key, value] : e.args) {
      stamped |= key == "trace" && value == "42";
    }
    EXPECT_TRUE(stamped) << e.name;
  }
  EXPECT_EQ(assimilates, ends.size());
}

// ---------------------------------------------------------------- Logging

TEST(LoggingTest, PrefixCarriesSimTimeOnlyWhileRegistered) {
  using internal_logging::FormatLogPrefix;
  Simulator sim;
  std::string before = FormatLogPrefix(LogLevel::kInfo, "f.cc", 1);
  EXPECT_EQ(before.find("@"), std::string::npos);
  obs::RegisterGlobalSimulator(&sim);
  std::string during = FormatLogPrefix(LogLevel::kInfo, "f.cc", 1);
  EXPECT_NE(during.find("@0us"), std::string::npos);
  EXPECT_NE(during.find("f.cc:1"), std::string::npos);
  EXPECT_EQ(during[1], 'I');
  sim.ScheduleAt(1234, [] {});
  sim.Run();
  std::string later = FormatLogPrefix(LogLevel::kWarning, "f.cc", 2);
  EXPECT_NE(later.find("@1234us"), std::string::npos);
  EXPECT_EQ(later[1], 'W');
  obs::UnregisterGlobalSimulator(&sim);
  std::string after = FormatLogPrefix(LogLevel::kError, "f.cc", 3);
  EXPECT_EQ(after.find("@"), std::string::npos);
  // Unregistering a never-registered simulator is a safe no-op.
  Simulator other;
  obs::UnregisterGlobalSimulator(&other);
  EXPECT_EQ(obs::GlobalSimulator(), nullptr);
}

}  // namespace
}  // namespace cdes
