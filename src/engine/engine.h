#ifndef CDES_ENGINE_ENGINE_H_
#define CDES_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine_spec.h"
#include "engine/instance.h"
#include "engine/shard.h"
#include "obs/obs.h"
#include "obs/profiler.h"

namespace cdes::engine {

struct EngineOptions {
  /// Worker shards. 0 = auto (half the hardware threads, at least 1).
  size_t shards = 0;
  /// Admission limit: instances in flight (submitted, not yet completed)
  /// before Submit blocks / TrySubmit rejects. 0 = unbounded.
  size_t max_in_flight = 4096;
  /// Instances a shard interleaves at once; further commands wait in its
  /// mailbox (bounds live memory at shards × max_resident worlds).
  size_t max_resident_per_shard = 64;
  /// Has no effect: instance worlds draw no random numbers. Kept for
  /// callers that still set it.
  uint64_t seed = 1;
  /// Keep one EventLog per instance and return its serialized form in the
  /// InstanceResult, enabling Engine::Recover after a crash.
  bool durable_logs = false;
  /// When non-empty, every in-flight instance's log is mirrored to
  /// `<wal_dir>/<id>.log` on disk as it runs (implies durable_logs; the
  /// directory is created). A crashed engine rebuilds from those files via
  /// RecoverDir. Completed instances' files are removed — their sealed log
  /// lives in the InstanceResult.
  std::string wal_dir;
  /// Checkpoint + compact an instance's on-disk log once its record suffix
  /// reaches this many records (at the instance's next quiescent turn).
  /// 0 = only on explicit Checkpoint(). Needs wal_dir.
  size_t checkpoint_every = 0;
  /// Group commit: WAL appends buffer across a shard's residents and hit
  /// the filesystem once this many lines accumulate (or at a barrier —
  /// checkpoint, instance completion, shard idle, stop). 1 = write-through
  /// on every record. Needs wal_dir.
  size_t group_commit_records = 1;
  /// Construct paused: submissions queue but no shard consumes until
  /// Resume(). Deterministic admission tests; bench preloading.
  bool start_paused = false;
  /// When set, one Complete span per instance ("instance <id>", tid =
  /// instance id, pid = shard index, wall-clock microseconds) is recorded,
  /// plus a "submit <id>" span on the engine lane and a flow arrow linking
  /// the two across threads. Calls are serialized by the instance manager,
  /// so an ordinary TraceRecorder is safe despite the multi-threaded
  /// engine.
  obs::TraceRecorder* tracer = nullptr;
  /// When set, every shard's resident schedulers attribute their guard
  /// firability checks to it, on the same evaluation path as without one
  /// (see GuardSchedulerOptions::profiler). GuardProfiler is internally
  /// thread-safe (atomic record path), so one profiler shared by all shards
  /// is the intended shape.
  obs::GuardProfiler* profiler = nullptr;
  /// Turn on per-instance lifecycle histograms in the shard registries
  /// (sched.decision_latency_us, sched.guard_reduction_steps, ...). Off by
  /// default: the engine hot path skips that instrumentation.
  bool lifecycle_metrics = false;
};

/// Point-in-time view of the engine's counters, safe to take while the
/// engine runs (assembled from atomics and the manager's mutex-guarded
/// tallies — never from shard-confined registries).
struct EngineMetricsSnapshot {
  size_t shards = 0;
  uint64_t instances_submitted = 0;
  uint64_t instances_completed = 0;
  uint64_t instances_rejected = 0;
  uint64_t instances_in_flight = 0;
  /// Occurrences across completed instances.
  uint64_t events = 0;
  /// Run-queue steps executed across all shards (attempts and protocol
  /// message deliveries): the engine's true work rate.
  uint64_t sim_steps = 0;
  double wall_seconds = 0;
  /// events / wall_seconds: aggregate multi-instance throughput.
  double events_per_sec = 0;
  std::vector<size_t> shard_queue_depth;
  std::vector<size_t> shard_resident;
  std::vector<uint64_t> shard_events;
  std::vector<uint64_t> shard_instances;

  /// Percentile digest of one histogram visible to the snapshot: always
  /// engine.latency_us and engine.admission_wait_us; after Stop() also the
  /// per-shard registries merged across shards (the sched.* lifecycle
  /// histograms when EngineOptions::lifecycle_metrics). No simulated time
  /// passes inside an instance world, so sched.decision_latency_us reads
  /// 0; the wall-clock figure is engine.latency_us.
  struct HistogramSummary {
    std::string name;
    uint64_t count = 0;
    double mean = 0;
    uint64_t p50 = 0;
    uint64_t p99 = 0;
    uint64_t max = 0;
  };
  std::vector<HistogramSummary> histograms;

  /// Shard-shared symbolic-cache traffic, merged across shards. Populated
  /// from the shard registries, which are worker-confined until Stop(): all
  /// zero while the engine is live, real on the final (post-Stop) snapshot
  /// and telemetry line.
  uint64_t reduction_cache_hits = 0;
  uint64_t reduction_cache_misses = 0;
  uint64_t residuation_cache_hits = 0;
  uint64_t residuation_cache_misses = 0;
  /// hits / (hits + misses); 0 with no traffic.
  double ReductionCacheHitRate() const {
    uint64_t total = reduction_cache_hits + reduction_cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(reduction_cache_hits) /
                            static_cast<double>(total);
  }

  /// Publishes the snapshot as "engine.*" gauges (plus per-shard
  /// "engine.shard<k>.*" and "<histogram>.p50/.p99/.mean/.count" percentile
  /// gauges) into `registry`, alongside whatever "sched.*" metrics the
  /// caller already collects there. Call from the thread that
  /// owns the registry.
  void PublishTo(obs::MetricsRegistry* registry) const;
  /// Multi-line human-readable rendering (examples, operator dumps),
  /// including the latency-histogram percentile lines.
  std::string ToString() const;
  /// One JSONL telemetry record (no trailing newline):
  /// {"schema_version": 2, "ts_us": ..., engine counters, per-shard
  /// arrays, "histograms": {name: {count,mean,p50,p99,max}}, and — when
  /// `profiler` is non-null — "hot_guards": top guard-profiler sites}.
  /// This is the line format StartTelemetry sinks and tools/cdes-top tails.
  std::string ToJsonLine(uint64_t ts_us,
                         const obs::GuardProfiler* profiler = nullptr) const;
};

/// The multi-instance workflow engine: compiles a spec once per shard and
/// runs N workflow instances across K worker shards, each instance an
/// isolated deterministic world (own run queue and co-located distributed
/// guard scheduler; no simulated network, no RNG) — the sharding story
/// Singh's instance-local guard synthesis licenses (§4.2–4.3: guards
/// consult only announcements of their own instance). See docs/ENGINE.md.
///
/// Lifecycle: construct (threads start, optionally paused) → Submit /
/// TrySubmit / Recover → Drain → TakeResults → Stop (idempotent; the
/// destructor calls it). Submit and friends are safe from any one caller
/// thread at a time; shards run concurrently with all of them.
class Engine {
 public:
  explicit Engine(EngineSpecRef spec, const EngineOptions& options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Submits one instance; blocks while the admission limit is reached
  /// (backpressure). Returns the instance id.
  Result<uint64_t> Submit(InstanceScript script);
  /// Non-blocking admission: kResourceExhausted when the limit is reached
  /// (counted in instances_rejected).
  Result<uint64_t> TrySubmit(InstanceScript script);

  /// Rebuilds one in-flight instance per serialized EventLog (produced by
  /// a durable_logs run — see InstanceResult::log_text), routes it to the
  /// shard that owned it, and drives it to a maximal trace. Torn tails
  /// (crash mid-append) lose only their final record; a v3 checkpoint
  /// section restores the covered prefix without replay. Two logs naming
  /// the same instance id are rejected up front (InvalidArgument) before
  /// any instance materializes — a double-submit would run the instance
  /// twice on its shard. Returns the first routing error; per-instance
  /// failures surface in that instance's result instead.
  Status Recover(const std::vector<std::string>& logs);

  /// Recover(every `*.log` file under `dir`), in sorted filename order —
  /// the restart path for a wal_dir engine: point the new engine at the
  /// dead one's directory.
  Status RecoverDir(const std::string& dir);

  /// Asks every shard to checkpoint + compact each resident instance at
  /// its next quiescent turn (wal_dir engines; otherwise a no-op). Returns
  /// immediately — checkpoints land as the shards reach quiescence.
  void Checkpoint();

  /// Simulated kill −9 for crash testing: worker threads exit at their
  /// next turn boundary without finishing residents, flushing group-commit
  /// buffers, or reporting results; in-flight instances stay unreported.
  /// The engine is dead afterwards (like Stop, but nothing is drained or
  /// sealed). The wal_dir files left behind are exactly what a real crash
  /// would leave, minus unflushed buffers — feed them to a new engine's
  /// RecoverDir.
  void Abort();

  /// Lifts start_paused: queued submissions begin executing.
  void Resume();
  /// Blocks until every admitted instance has completed. Resumes paused
  /// shards first (a paused engine can never drain).
  void Drain();
  /// Drains, stops every shard, and joins the worker threads. Idempotent.
  void Stop();

  EngineMetricsSnapshot Metrics() const;
  /// Completed-instance results accumulated since the last call, in
  /// completion order.
  std::vector<InstanceResult> TakeResults();

  /// Folds every engine-owned registry into `out`: the manager's latency
  /// histograms always (safe mid-run), and the per-shard registries
  /// ("sched.*", "engine.wal.*") once the engine is stopped (they are
  /// worker-thread-confined while shards run). Counters and histograms add
  /// up across shards, and so do the shards' gauges (the
  /// "algebra.residuation_cache_*" tallies), which stay gauges. Feed the
  /// result to obs::PrometheusText for a scrape snapshot.
  void MergeMetricsInto(obs::MetricsRegistry* out) const;

  /// A line-oriented telemetry consumer; called from the telemetry thread
  /// with one EngineMetricsSnapshot::ToJsonLine record (no newline).
  using TelemetrySink = std::function<void(const std::string& line)>;
  /// Starts a background publisher emitting one snapshot line per
  /// `interval` until Stop(), which flushes one final line before
  /// returning. One publisher per engine; later calls replace nothing and
  /// are ignored.
  void StartTelemetry(std::chrono::milliseconds interval, TelemetrySink sink);
  /// StartTelemetry writing JSONL to `path` (the stream tools/cdes-top
  /// tails), flushed after every line.
  Status StartTelemetryFile(std::chrono::milliseconds interval,
                            const std::string& path);

  size_t shard_count() const { return shards_.size(); }
  const EngineSpec& spec() const { return *spec_; }
  /// A stopped shard's private registry ("sched.*", "engine.wal.*" across
  /// its instances). Only meaningful after Stop().
  const obs::MetricsRegistry& shard_metrics(size_t shard) const {
    return shards_[shard]->metrics();
  }

 private:
  Result<uint64_t> SubmitInternal(InstanceScript script, bool block);
  uint64_t NowUs() const;
  void TelemetryMain(std::chrono::milliseconds interval);
  void EmitTelemetryLine();

  EngineSpecRef spec_;
  EngineOptions options_;
  std::chrono::steady_clock::time_point epoch_;
  std::unique_ptr<InstanceManager> manager_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Set by Stop()/Abort() only after the telemetry thread and every shard
  /// are joined, so no other thread ever reads it while it changes.
  bool stopped_ = false;
  /// Wall time frozen at Stop() so post-run Metrics() report the run's
  /// throughput, not decaying averages.
  uint64_t stopped_at_us_ = 0;

  // ---- Telemetry publisher ----
  std::thread telemetry_thread_;
  std::mutex telemetry_mu_;
  std::condition_variable telemetry_cv_;
  bool telemetry_stop_ = false;
  TelemetrySink telemetry_sink_;
};

}  // namespace cdes::engine

#endif  // CDES_ENGINE_ENGINE_H_
