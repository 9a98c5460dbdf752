// The traced run: per-layer metrics of one workload.
//
// Counts come from counters the library exports, read after Engine::Stop.
// Times come from spans the benchmark records around each call into a
// layer's public API (spec, guards, analysis, engine, sched, sim,
// runtime). Instance worlds are driven directly through the classes a
// shard uses: GuardScheduler on a shared compiled table, Simulator,
// Network, and EventLog. Neither GuardProfiler nor lifecycle_metrics is
// turned on: both move EventActor onto another code path.
//
// The engine phases here are untraced; they give the untraced throughput
// the traced figures are compared against and never feed the end-to-end
// metrics.

#include <malloc.h>

#include <filesystem>

#include "analysis/analyzer.h"
#include "analysis/model_checker.h"
#include "bench.h"
#include "common/strings.h"
#include "runtime/checkpoint.h"
#include "spec/parser.h"

namespace perfbench {
namespace {

using cdes::StrCat;
namespace fs = std::filesystem;

double MedianUs(const Tracer& t, const std::string& name) {
  return Median(t.Seconds(name)) * 1e6;
}

double MeanUs(const Tracer& t, const std::string& name) {
  std::vector<double> v = t.Seconds(name);
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size()) * 1e6;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Front end: parse, compile with and without simplification, lint, and
/// the reachability checker, each in a fresh context and each a span.
void TraceFrontEnd(const Workload& w, size_t reps, Tracer* t,
                   Report* report) {
  size_t states = 0;
  for (size_t rep = 0; rep < reps; ++rep) {
    cdes::WorkflowContext ctx;
    cdes::Result<cdes::ParsedWorkflow> parsed = cdes::Status::OK();
    {
      Span s(t, "spec.parse");
      parsed = cdes::ParseWorkflow(&ctx, w.spec_text, w.spec_file);
    }
    CDES_CHECK(parsed.ok()) << parsed.status();
    const cdes::ParsedWorkflow& wf = parsed.value();
    std::unique_ptr<cdes::CompiledWorkflow> compiled;
    {
      Span s(t, "guards.compile");
      compiled = std::make_unique<cdes::CompiledWorkflow>(
          cdes::CompileWorkflow(&ctx, wf.spec));
    }
    {
      Span s(t, "analysis.check");
      cdes::analysis::CheckResult r =
          cdes::analysis::CheckCompiled(&ctx, wf, *compiled);
      states = r.stats.states_explored;
      if (r.stats.bounded || !r.diagnostics.empty()) {
        report->Fail("reachability check is bounded or has findings");
      }
    }
    cdes::WorkflowContext raw_ctx;
    auto raw_parsed = cdes::ParseWorkflow(&raw_ctx, w.spec_text);
    {
      Span s(t, "guards.compile_unsimplified");
      cdes::CompileWorkflow(&raw_ctx, raw_parsed.value().spec,
                            cdes::CompileOptions{.simplify = false});
    }
    cdes::WorkflowContext lint_ctx;
    auto lint_parsed = cdes::ParseWorkflow(&lint_ctx, w.spec_text);
    {
      Span s(t, "analysis.lint");
      CheckFindings(
          w, cdes::analysis::AnalyzeWorkflow(&lint_ctx, lint_parsed.value()),
          report);
    }
  }
  double compile_us = MedianUs(*t, "guards.compile");
  double check_us = MedianUs(*t, "analysis.check");
  report->Set("spec.parse_us", MedianUs(*t, "spec.parse"), "us");
  report->Set("guards.compile_us", compile_us, "us");
  report->Set("temporal.simplify_us",
              compile_us - MedianUs(*t, "guards.compile_unsimplified"), "us");
  report->Set("analysis.lint_us", MedianUs(*t, "analysis.lint"), "us");
  report->Set("analysis.check_us", check_us, "us");
  report->Set("analysis.states_explored", static_cast<double>(states),
              "count");
  report->Set("analysis.states_per_s",
              Ratio(static_cast<double>(states), check_us * 1e-6), "1/s");
}

struct EnginePhase {
  WindowStats window;
  cdes::engine::EngineMetricsSnapshot snapshot;
  cdes::obs::MetricsRegistry merged;
  double events_per_s = 0;
};

/// Durability settings of the WAL phase and of RecoverDir.
constexpr size_t kCheckpointEvery = 8;
/// Small enough that eight residents per shard fill a group commit.
constexpr size_t kGroupCommitRecords = 16;
constexpr double kSubWindowSeconds = 0.2;

/// `o` with a per-shard WAL under `wal_dir`.
cdes::engine::EngineOptions WithWal(cdes::engine::EngineOptions o,
                                    const std::string& wal_dir) {
  o.wal_dir = wal_dir;
  o.checkpoint_every = kCheckpointEvery;
  o.group_commit_records = kGroupCommitRecords;
  return o;
}

/// One untraced closed-loop engine phase: the workload's own engine, or
/// with `wal_dir` set its WAL variant; `telemetry` publishes JSONL
/// snapshots every 50 ms.
std::unique_ptr<EnginePhase> RunEnginePhase(const Workload& w,
                                            const std::string& wal_dir,
                                            bool telemetry, double seconds,
                                            uint64_t seed, Report* report) {
  auto out = std::make_unique<EnginePhase>();
  double unused = 0;
  auto engine = SetUpEngine(
      w,
      wal_dir.empty() ? EngineOptionsFor(w)
                      : WithWal(EngineOptionsFor(w), wal_dir),
      &unused);
  size_t lines = 0;
  if (telemetry) {
    engine->StartTelemetry(std::chrono::milliseconds(50),
                           [&lines](const std::string&) { ++lines; });
  }
  JourneyStream journeys(w.journeys.size(), seed);
  out->window = RunClosedLoop(engine.get(), w, &journeys, seconds,
                              kSubWindowSeconds, report);
  engine->Stop();
  if (telemetry && lines == 0) report->Fail("telemetry published nothing");
  out->snapshot = engine->Metrics();
  engine->MergeMetricsInto(&out->merged);
  out->events_per_s =
      static_cast<double>(out->window.events) / out->window.seconds;
  if (!wal_dir.empty()) {
    std::error_code ec;
    fs::remove_all(wal_dir, ec);
  }
  return out;
}

uint64_t CounterValue(const cdes::obs::MetricsRegistry& m,
                      const std::string& name) {
  auto it = m.counters().find(name);
  return it == m.counters().end() ? 0 : it->second->value();
}

double GaugeValue(const cdes::obs::MetricsRegistry& m,
                  const std::string& name) {
  auto it = m.gauges().find(name);
  return it == m.gauges().end() ? 0 : it->second->value();
}

/// What the traced direct drive counts from outside the scheduler.
/// `sched.parks` is exported only with lifecycle instrumentation, which the
/// engine leaves off, so an attempt counts as parked when the scheduler's
/// parked_count() grew across it.
struct DirectCounts {
  std::vector<double> close_rounds;
  uint64_t attempts = 0;
  uint64_t parked = 0;
};

/// Drives `instances` journeys one world at a time on this thread, as the
/// engine's shards would; returns events per second. With a tracer every
/// layer call is a span under one "bench.instance" span per instance, and
/// `counts` (required then) gathers parks and close rounds.
double DriveDirect(const Workload& w, SpecRuntime* rt, size_t instances,
                   JourneyStream* journeys, uint64_t first_id, Tracer* t,
                   Report* report, DirectCounts* counts) {
  const cdes::Alphabet& alphabet = *rt->ctx.alphabet();
  uint64_t events = 0;
  Clock::time_point start = Clock::now();
  for (size_t i = 0; i < instances; ++i) {
    uint64_t id = first_id + i;
    const Journey& journey = w.journeys[journeys->Next()];
    Span instance(t, "bench.instance", id);
    std::unique_ptr<World> world;
    {
      Span s(t, "sched.install", id);
      world = std::make_unique<World>(rt, id, nullptr);
    }
    for (const std::string& name : journey.attempts) {
      size_t parked = t != nullptr ? world->sched->parked_count() : 0;
      AttemptAndRun(world.get(), alphabet, name, t, id);
      if (t != nullptr) {
        ++counts->attempts;
        if (world->sched->parked_count() > parked) ++counts->parked;
      }
    }
    size_t rounds = CloseAndRun(world.get(), t, id);
    if (t != nullptr) {
      counts->close_rounds.push_back(static_cast<double>(rounds));
    }
    bool ok = false;
    std::string history = FinalHistory(world.get(), alphabet, &ok, t, id);
    events += world->sched->history().size();
    ++report->attempted;
    if (!ok || history != journey.expected) {
      ++report->failed;
      report->Fail(StrCat("direct instance ", id, " (", journey.kind,
                          "): '", history, "'"));
    }
  }
  return static_cast<double>(events) / SecondsSince(start);
}

/// Heap bytes per instance world, over a batch kept alive together.
double WorldBytes(SpecRuntime* rt) {
  constexpr size_t kBatch = 256;
  std::vector<std::unique_ptr<World>> worlds;
  worlds.reserve(kBatch);
  struct mallinfo2 before = mallinfo2();
  for (size_t i = 0; i < kBatch; ++i) {
    worlds.push_back(std::make_unique<World>(rt, i + 1, nullptr));
  }
  struct mallinfo2 after = mallinfo2();
  return (static_cast<double>(after.uordblks) -
          static_cast<double>(before.uordblks)) /
         kBatch;
}

/// Replays the crash image instance by instance through the runtime and
/// scheduler layers, then through the engine.
void TraceRecovery(const Workload& w, SpecRuntime* rt, const CrashImage& image,
                   const RunOptions& opts, Tracer* t, Report* report) {
  const cdes::Alphabet& alphabet = *rt->ctx.alphabet();
  for (size_t i = 0; i < image.logs.size(); ++i) {
    uint64_t id = image.ids[i];
    Span instance(t, "bench.recover_instance", id);
    cdes::Result<cdes::EventLog> log = cdes::Status::OK();
    {
      Span s(t, "runtime.log_load", id);
      log = cdes::EventLog::LoadTolerant(alphabet, image.logs[i]);
    }
    CDES_CHECK(log.ok()) << log.status();
    {
      Span s(t, "runtime.checkpoint_parse", id);
      auto state = cdes::ParseCheckpoint(rt->ctx.guards(), alphabet,
                                         image.payloads[i]);
      CDES_CHECK(state.ok()) << state.status();
    }
    World world(rt, id, nullptr);
    {
      Span s(t, "sched.recover", id);
      cdes::Status st = world.sched->Recover(log.value());
      if (!st.ok()) report->Fail(StrCat("recover ", id, ": ", st.ToString()));
    }
    if (log.value().total_records() > 0) {
      world.sim.RunUntil(log.value().last_stamp().time);
    }
    CloseAndRun(&world, t, id);
    bool ok = false;
    std::string history = FinalHistory(&world, alphabet, &ok, t, id);
    ++report->attempted;
    if (!ok || history != image.expected[i]) {
      ++report->failed;
      report->Fail(StrCat("recovered instance ", id, ": '", history, "'"));
    }
  }

  // The engine paths: in-memory Recover, and RecoverDir over the image
  // written as WAL files (the restart a crashed WAL engine makes).
  double unused = 0;
  {
    auto engine = SetUpEngine(w, RestartOptionsFor(w), &unused);
    Span s(t, "engine.recover_mem");
    RecoverImage(engine.get(), image, "", report);
  }
  std::string dir = opts.work_dir + "/wal-recover";
  WriteImageDir(image, dir);
  {
    auto engine = SetUpEngine(w, WithWal(RestartOptionsFor(w), dir), &unused);
    Span s(t, "engine.recover_dir");
    RecoverImage(engine.get(), image, dir, report);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  report->Set("engine.recover_mem_s",
              Median(t->Seconds("engine.recover_mem")), "s");
  report->Set("engine.recover_dir_s",
              Median(t->Seconds("engine.recover_dir")), "s");
}

}  // namespace

void RunTraced(const Workload& w, const RunOptions& opts, Report* report) {
  Tracer tracer;
  Tracer* t = &tracer;
  SpecRuntime rt(w);
  report->provenance["host_loop_ms"] = StrCat(HostLoopMs());

  TraceFrontEnd(w, std::min<size_t>(w.verify_samples, 10), t, report);

  // Untraced engine phases, interleaved so that drift of the host and
  // warm-up hit every kind alike: the workload's engine, the same engine
  // with live telemetry, and its WAL variant. Rates are medians over the
  // passes; counters come from the last pass of each kind.
  constexpr size_t kPasses = 3;
  std::unique_ptr<EnginePhase> main_phase, telemetry_phase, wal;
  std::vector<double> main_rates, telemetry_rates, wal_rates;
  double phase_seconds = opts.seconds / (3 * kPasses);
  for (size_t pass = 0; pass < kPasses; ++pass) {
    uint64_t seed = opts.seed + pass;
    main_phase = RunEnginePhase(w, "", false, phase_seconds, seed, report);
    main_rates.push_back(main_phase->events_per_s);
    telemetry_phase = RunEnginePhase(w, "", true, phase_seconds, seed, report);
    telemetry_rates.push_back(telemetry_phase->events_per_s);
    wal = RunEnginePhase(w, opts.work_dir + "/wal-phase", false,
                         phase_seconds, seed, report);
    wal_rates.push_back(wal->events_per_s);
  }
  const double main_rate = Median(main_rates);
  const double telemetry_rate = Median(telemetry_rates);
  const double wal_rate = Median(wal_rates);

  // Direct drive of the same journeys: a warm-up pass fills the shared
  // caches, then untraced and traced passes alternate.
  JourneyStream journeys(w.journeys.size(), opts.seed);
  size_t per_pass = std::max<size_t>(1, w.traced_instances / kPasses);
  uint64_t next_id = 1;
  DriveDirect(w, &rt, per_pass, &journeys, next_id, nullptr, report, nullptr);
  next_id += per_pass;
  std::vector<double> direct_rates, traced_rates;
  DirectCounts counts;
  for (size_t pass = 0; pass < kPasses; ++pass) {
    direct_rates.push_back(DriveDirect(w, &rt, per_pass, &journeys, next_id,
                                       nullptr, report, nullptr));
    next_id += per_pass;
    traced_rates.push_back(DriveDirect(w, &rt, per_pass, &journeys, next_id,
                                       t, report, &counts));
    next_id += per_pass;
  }
  double direct = Median(direct_rates);
  double traced = Median(traced_rates);
  double world_bytes = WorldBytes(&rt);

  CrashImage image;
  {
    Span s(t, "bench.build_image");
    image = BuildCrashImage(w, &rt, t, report);
  }
  TraceRecovery(w, &rt, image, opts, t, report);

  // ---- engine ----
  const auto& snap = main_phase->snapshot;
  report->Set("engine.submit_wait_us",
              Median(main_phase->window.submit_wait_us), "us");
  uint64_t lo = UINT64_MAX, hi = 0;
  for (uint64_t e : snap.shard_events) {
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  report->Set("engine.shard_skew",
              Ratio(static_cast<double>(hi), static_cast<double>(lo)),
              "ratio");
  report->Set("engine.overhead_share",
              1 - Ratio(main_rate,
                        static_cast<double>(w.shards) * direct),
              "ratio");
  double wal_records =
      static_cast<double>(CounterValue(wal->merged, "engine.wal.records"));
  report->Set("engine.wal_records_per_event",
              Ratio(wal_records, static_cast<double>(wal->snapshot.events)),
              "ratio");
  report->Set("engine.wal_records_per_commit",
              Ratio(wal_records, static_cast<double>(CounterValue(
                                     wal->merged, "engine.wal.group_commits"))),
              "ratio");
  report->Set("engine.checkpoints_per_instance",
              Ratio(static_cast<double>(
                        CounterValue(wal->merged, "engine.checkpoints")),
                    static_cast<double>(wal->snapshot.instances_completed)),
              "ratio");
  report->Set("engine.wal_share", 1 - Ratio(wal_rate, main_rate), "ratio");
  report->Set("obs.telemetry_overhead",
              1 - Ratio(telemetry_rate, main_rate),
              "ratio");

  // ---- sched / sim / runtime counters (main engine phase) ----
  const auto& m = main_phase->merged;
  double events = static_cast<double>(snap.events);
  report->Set("sched.direct_events_per_s", direct, "1/s");
  report->Set("sched.install_us", MeanUs(*t, "sched.install"), "us");
  report->Set("sched.world_bytes", world_bytes, "bytes");
  report->Set("sched.attempt_us", MeanUs(*t, "sched.attempt"), "us");
  report->Set("sched.close_us", MeanUs(*t, "sched.close"), "us");
  report->Set("sched.close_rounds", Median(counts.close_rounds), "count");
  report->Set("sched.result_us", MeanUs(*t, "sched.result"), "us");
  report->Set("sched.parks_per_attempt",
              Ratio(static_cast<double>(counts.parked),
                    static_cast<double>(counts.attempts)),
              "ratio");
  report->Set(
      "sched.promise_msgs_per_event",
      Ratio(static_cast<double>(CounterValue(m, "sched.msgs.promise") +
                                CounterValue(m, "sched.msgs.promise_request")),
            events),
      "ratio");
  report->Set("sched.announce_msgs_per_event",
              Ratio(static_cast<double>(CounterValue(m, "sched.msgs.announce")),
                    events),
              "ratio");
  report->Set("sched.recover_us", MeanUs(*t, "sched.recover"), "us");
  report->Set("sim.steps_per_event",
              Ratio(static_cast<double>(snap.sim_steps), events), "ratio");
  report->Set("net.messages_per_event",
              Ratio(static_cast<double>(CounterValue(m, "net.messages")),
                    events),
              "ratio");
  report->Set("runtime.log_load_us", MeanUs(*t, "runtime.log_load"), "us");
  report->Set("runtime.checkpoint_parse_us",
              MeanUs(*t, "runtime.checkpoint_parse"), "us");
  report->Set("runtime.log_serialize_us", MeanUs(*t, "runtime.log_serialize"),
              "us");
  report->Set("runtime.image_records",
              static_cast<double>(image.size.records), "count");
  report->Set("runtime.image_bytes", static_cast<double>(image.size.bytes),
              "bytes");
  report->Set("guards.reduction_cache_hit_rate", snap.ReductionCacheHitRate(),
              "ratio");
  double res_hits = GaugeValue(m, "algebra.residuation_cache_hits");
  double res_misses = GaugeValue(m, "algebra.residuation_cache_misses");
  report->Set("algebra.residuation_cache_hit_rate",
              Ratio(res_hits, res_hits + res_misses), "ratio");

  // ---- the trace itself ----
  report->Set("trace.events_per_s", traced, "1/s");
  report->Set("trace.overhead_share", 1 - Ratio(traced, direct), "ratio");
  std::map<std::string, double> self = tracer.SelfSecondsByModule();
  for (const char* module :
       {"spec", "guards", "analysis", "engine", "sched", "sim", "runtime"}) {
    report->Set(StrCat("self_s.", module), self[module], "s");
  }
  std::string path =
      StrCat(opts.work_dir, "/", w.name, "-seed", opts.seed, ".trace.json");
  cdes::Status written = tracer.WriteChromeTrace(path);
  if (!written.ok()) report->Fail(written.ToString());
  report->provenance["trace_file"] = path;
  report->provenance["trace_spans"] = StrCat(tracer.spans().size());
  report->provenance["image_instances"] = StrCat(image.ids.size());
  report->provenance["traced_instances"] = StrCat(w.traced_instances);
}

}  // namespace perfbench
