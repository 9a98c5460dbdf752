// Shared declarations of the perfbench program: workload definitions, the
// direct-driven instance world, span tracing, and the metric report.
//
// The benchmark measures the cdes library from outside: it times calls into
// the public API of engine/, sched/, sim/, runtime/, guards/, temporal/,
// spec/ and analysis/ and reads counters the library already exports.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "engine/engine.h"
#include "guards/context.h"
#include "guards/workflow.h"
#include "obs/metrics.h"
#include "runtime/event_log.h"
#include "sched/guard_scheduler.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "spec/ast.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double SecondsSince(Clock::time_point from) {
  return SecondsBetween(from, Clock::now());
}

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
double Quantile(std::vector<double> v, double q);
/// Mean of `v` without its lowest and highest tenth; 0 when empty.
double TrimmedMean(std::vector<double> v);

// ---- Workloads -------------------------------------------------------

/// One scripted journey through a workflow instance: the attempts an
/// InstanceScript carries (followed by closure to a maximal trace) and the
/// history every instance running it must end with.
struct Journey {
  std::string kind;
  std::vector<std::string> attempts;
  std::string expected;
};

/// A crash-image entry: the attempts an in-flight instance made before the
/// crash. Every prefix ends quiescent (nothing parked), so the recovered
/// instance must close to exactly the history an uncrashed run of the same
/// prefix closes to.
struct ImagePrefix {
  std::vector<std::string> attempts;
};

/// Size of a crash image: records and serialized bytes of its logs.
struct ImageSize {
  uint64_t records = 0;
  uint64_t bytes = 0;
  bool operator==(const ImageSize&) const = default;
};

struct Workload {
  std::string name;
  /// Spec file, relative to the checkout root (the working directory).
  std::string spec_file;
  std::string spec_text;
  size_t shards = 1;
  /// Closed-loop client count: instances kept outstanding, at most the
  /// shards' resident capacity (the engine default of 64 per shard).
  size_t clients = 8;
  /// What `cdes-lint --check` must report for the spec, as "<rule code>
  /// <first quoted name>" per finding; empty for a clean spec.
  std::vector<std::string> expected_findings;
  /// Journey kinds, mixed 1:1:...; the seed fixes their order.
  std::vector<Journey> journeys;
  /// Crash image: `image_instances` in-flight instances cycling through
  /// `image_prefixes`.
  std::vector<ImagePrefix> image_prefixes;
  size_t image_instances = 0;
  /// Compact every other image instance behind a checkpoint section.
  bool image_checkpoints = false;
  /// The size the image must have, pinned so that recover_s always times
  /// the same work; `smoke_image_size` at the smoke mode's instance count.
  ImageSize image_size;
  ImageSize smoke_image_size;
  /// Durable logging: the engine keeps one EventLog per instance and
  /// returns it sealed with the result (EngineOptions::durable_logs).
  bool durable_logs = false;
  /// Samples per run of the one-shot phases, spread evenly over the
  /// run's rounds.
  size_t setup_samples = 10;
  size_t recover_samples = 10;
  size_t verify_samples = 10;
  /// Instances the traced run drives directly through GuardScheduler.
  size_t traced_instances = 2000;
};

/// The named workload with its spec loaded; exits on failure.
Workload LoadWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Seeded journey order: consecutive blocks each hold every kind once, in
/// a per-block shuffled order, so any prefix is within one block of the
/// exact mix.
class JourneyStream {
 public:
  JourneyStream(size_t kinds, uint64_t seed);
  size_t Next();

 private:
  uint64_t Draw();
  std::vector<size_t> block_;
  size_t pos_;
  uint64_t state_;
};

/// Id of the first crash-image instance; far above any id a run submits.
inline constexpr uint64_t kImageBaseId = 1'000'000'000;

/// Options of the workload's engine (in memory; see RunTraced for the
/// on-disk WAL variant). The client count is the admission limit, so a
/// blocking Submit returns only after an instance completed.
cdes::engine::EngineOptions EngineOptionsFor(const Workload& w);
/// The same engine restarting: no admission limit, so Recover hands every
/// image instance to its shard at once rather than one per completion.
cdes::engine::EngineOptions RestartOptionsFor(const Workload& w);

// ---- Direct-driven instance worlds ------------------------------------

/// The per-shard state the engine keeps: one context, the parsed spec, and
/// one compiled guard table shared by every instance world built on it.
struct SpecRuntime {
  explicit SpecRuntime(const Workload& w);

  cdes::WorkflowContext ctx;
  cdes::ParsedWorkflow workflow;
  cdes::CompiledWorkflowRef compiled;
  size_t sites = 1;
  /// The registry every world built on this runtime reports into, like a
  /// shard's registry.
  cdes::obs::MetricsRegistry metrics;
};

/// One instance world built the way an engine shard builds it: its own
/// Simulator and Network, and a GuardScheduler on the shared compiled table.
struct World {
  World(SpecRuntime* rt, uint64_t id, cdes::EventLog* durable_log);

  cdes::Simulator sim;
  std::unique_ptr<cdes::Network> net;
  std::unique_ptr<cdes::GuardScheduler> sched;
};

class Tracer;
struct Report;

/// Attempts `name` and runs the world to quiescence.
void AttemptAndRun(World* w, const cdes::Alphabet& alphabet,
                   const std::string& name, Tracer* tracer, uint64_t id);
/// Closes the world to a maximal trace the way a shard does (at most 16
/// Close rounds); returns the Close calls made.
size_t CloseAndRun(World* w, Tracer* tracer, uint64_t id);
/// Rendered history; empty with `*ok` false when inconsistent/non-maximal.
std::string FinalHistory(World* w, const cdes::Alphabet& alphabet, bool* ok,
                         Tracer* tracer, uint64_t id);

/// Runs `attempts` (+ closure) in a fresh untraced world; the reference
/// for expected histories.
std::string ReferenceHistory(SpecRuntime* rt,
                             const std::vector<std::string>& attempts,
                             bool* ok);

/// The crash image: one open log per in-flight instance, as the file text
/// a shard's WAL holds at a quiescent cut.
struct CrashImage {
  std::vector<uint64_t> ids;
  std::vector<std::string> logs;
  /// Expected closed history per instance (uncrashed reference).
  std::vector<std::string> expected;
  /// Checkpoint payload of every instance's quiescent state; installed
  /// into the log of every other instance when the workload checkpoints.
  std::vector<std::string> payloads;
  ImageSize size;
  size_t checkpointed = 0;
};

/// Builds the workload's crash image; fails the report unless its size is
/// the pinned one.
CrashImage BuildCrashImage(const Workload& w, SpecRuntime* rt, Tracer* tracer,
                           Report* report);

// ---- Tracing ----------------------------------------------------------

/// In-memory span recorder for the traced run (single-threaded). Spans
/// nest by call order; each records name, start, end, parent and the
/// instance it belongs to.
class Tracer {
 public:
  struct SpanRecord {
    const char* name;
    uint64_t instance;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
  };

  Tracer();
  int Begin(const char* name, uint64_t instance);
  void End(int index);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Durations of the spans named `name`, in seconds.
  std::vector<double> Seconds(const std::string& name) const;
  /// Self time per module (span-name prefix before the first '.'):
  /// duration minus the part covered by child spans.
  std::map<std::string, double> SelfSecondsByModule() const;
  /// Writes every span as a Chrome trace (obs::WriteChromeTrace).
  cdes::Status WriteChromeTrace(const std::string& path) const;

 private:
  int64_t NowNs() const;

  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer makes it free.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t instance = 0)
      : tracer_(tracer),
        index_(tracer ? tracer->Begin(name, instance) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// ---- Report -----------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run prints: correctness tallies, metrics, and provenance.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> provenance;

  void Fail(std::string message);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Checks one engine result against `expected`; counts it.
void CheckResult(const cdes::engine::InstanceResult& r,
                 const std::string& expected, Report* report);

struct RunOptions {
  std::string work_dir;
  uint64_t seed = 1;
  double seconds = 10;
  /// Measurement rounds; each runs one closed-loop window of
  /// seconds / rounds.
  size_t rounds = 10;
  /// Sub-window length of the closed-loop windows.
  double sub_window = 0.2;
};

/// Untraced run: the end-to-end metrics.
void RunEndToEnd(const Workload& w, const RunOptions& opts, Report* report);
/// Traced run: the per-layer metrics.
void RunTraced(const Workload& w, const RunOptions& opts, Report* report);

// ---- Shared measurement pieces ------------------------------------------

/// Instance script for journey kind `kind` (tag = kind).
cdes::engine::InstanceScript ScriptFor(const Workload& w, size_t kind);

/// One closed-loop window on a running engine: events decided by the
/// instances that completed inside it, and per sub-window of `sub_seconds`
/// one p50/p90 latency sample and one median Submit wait, so a burst of
/// host slowness moves a few samples, not the run's figure.
struct WindowStats {
  double seconds = 0;
  uint64_t events = 0;
  uint64_t instances = 0;
  std::vector<double> p50_us;
  std::vector<double> p90_us;
  std::vector<double> submit_wait_us;
};

WindowStats RunClosedLoop(cdes::engine::Engine* engine, const Workload& w,
                          JourneyStream* journeys, double seconds,
                          double sub_seconds, Report* report);

/// Constructs an engine for `w` and waits until every shard has compiled
/// and run a first (empty) instance; `*seconds` gets the elapsed time.
std::unique_ptr<cdes::engine::Engine> SetUpEngine(
    const Workload& w, const cdes::engine::EngineOptions& options,
    double* seconds);

/// Writes the image's logs as `<id>.log` files into a fresh `dir`.
void WriteImageDir(const CrashImage& image, const std::string& dir);

/// Recovers the image on `engine` (Engine::Recover over the strings, or
/// RecoverDir over `dir` when it is non-empty), drains, and checks every
/// recovered history. Returns the elapsed seconds.
double RecoverImage(cdes::engine::Engine* engine, const CrashImage& image,
                    const std::string& dir, Report* report);

/// Fails the report unless `diagnostics` are exactly the workload's
/// expected findings.
void CheckFindings(const Workload& w,
                   const std::vector<cdes::analysis::Diagnostic>& diagnostics,
                   Report* report);

/// Milliseconds a fixed integer loop takes: the host's current speed,
/// recorded as provenance next to the figures (the host this benchmark was
/// written on drifted by about a third between phases of a few minutes).
double HostLoopMs();

/// Peak resident set of this process, in MiB (VmHWM).
double PeakRssMb();
/// Filesystem type name of `path` (statfs magic).
std::string FilesystemType(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
