#ifndef CDES_ENGINE_INSTANCE_H_
#define CDES_ENGINE_INSTANCE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/obs.h"

namespace cdes::engine {

/// Chrome-trace "process" id for engine-level spans (submit spans, flow
/// origins). Far above any shard index or simulated-site id, so the engine
/// lane never collides with per-shard / per-site lanes in the same trace.
inline constexpr int kEngineTracePid = 1 << 20;

/// What one workflow instance should do: a sequence of event-literal names
/// attempted in order (each run to quiescence on the instance's own run
/// queue), optionally followed by closure to a maximal trace.
/// Names are unmangled spec names ("s_buy", "~c_buy"): every instance runs
/// in its own scheduler world, so instances never share symbols.
struct InstanceScript {
  /// Caller correlation id, echoed in the result (e.g. a customer id).
  uint64_t tag = 0;
  std::vector<std::string> attempts;
  /// Drive the instance to a maximal trace after the script (one closure
  /// wave: attempting the complement of every undecided symbol). Without
  /// it the instance completes as soon as the scripted attempts have
  /// resolved.
  bool close = true;
};

/// Terminal report of one instance, assembled on the owning shard.
struct InstanceResult {
  uint64_t id = 0;
  uint64_t tag = 0;
  size_t shard = 0;
  /// Every dependency residual non-0 over the final history ("consistent
  /// so far"); with `maximal` also fully satisfied.
  bool consistent = false;
  /// Every symbol decided (closure converged).
  bool maximal = false;
  size_t events = 0;
  size_t accepted = 0;
  size_t rejected = 0;
  /// Rendered occurrence history, e.g. "s_book s_buy c_book c_buy".
  std::string history;
  /// Serialized per-instance EventLog (EngineOptions::durable_logs only);
  /// feed these to Engine::Recover to rebuild in-flight instances.
  std::string log_text;
  /// Non-empty when the instance failed structurally (unknown event name,
  /// unparseable recovery log, ...). Failed instances count as completed
  /// but never as consistent.
  std::string error;
  /// Empty unless the instance ended short. A closed or recovered instance
  /// that ends non-maximal lists its undecided symbols and, per parked
  /// attempt, what it still waits for (DiagnoseParked); a recovery whose
  /// log ended in a torn record says that the record was dropped.
  std::string diagnosis;
};

/// A command in a shard's MPSC mailbox.
struct EngineCommand {
  enum class Kind {
    kRun,         // start a fresh instance of the engine's workflow
    kRecover,     // rebuild an instance from a serialized EventLog, then close
    kCheckpoint,  // checkpoint every resident instance at its next quiescence
    kStop,        // finish resident instances, then exit the worker thread
  };
  Kind kind = Kind::kRun;
  uint64_t id = 0;
  InstanceScript script;
  std::string log_text;  // kRecover
  /// Wall microseconds (engine epoch) at submission, for the instance span.
  uint64_t submitted_at_us = 0;
};

/// Instance bookkeeping shared by the Engine (caller side) and its shards
/// (worker side): id allocation, id→shard routing, the admission limit with
/// blocking backpressure, completion tracking for Drain, and the result
/// sink. All state is guarded by one mutex; shards touch it only at
/// instance completion, so it is far off the per-event hot path.
class InstanceManager {
 public:
  /// `tracer`, when set, records one Complete span per instance (category
  /// kSim, name "instance <id>", tid = instance id, pid = shard) with
  /// submit→completion wall microseconds. Calls are serialized under the
  /// manager mutex, which is what makes a plain TraceRecorder safe here.
  InstanceManager(size_t shards, size_t max_in_flight,
                  obs::TraceRecorder* tracer);

  // ---- Caller side ----
  /// Allocates the next instance id, counting it in flight. With `block`,
  /// waits until the admission limit has room (backpressure); otherwise
  /// fails with kResourceExhausted when full.
  Result<uint64_t> Admit(bool block);
  /// Deterministic id→shard placement (id mod shards): stable across runs
  /// and across engine restarts, so Recover re-routes a log to the same
  /// shard index that owned the instance.
  size_t ShardFor(uint64_t id) const { return id % shards_; }
  /// Registers a recovered instance under its pre-crash id: counts it in
  /// flight (blocking on the admission limit) and ensures future Admit
  /// calls allocate strictly above it.
  Status AdmitRecovered(uint64_t id);
  /// Blocks until every admitted instance has completed.
  void Drain();

  /// Records one admitted submission: observes `wait_us` in the
  /// engine.admission_wait_us histogram and, when tracing, emits a
  /// "submit <id>" span on the engine lane (pid kEngineTracePid, dur =
  /// admission wait) plus the FlowStart("instance", id) arrow origin that
  /// Complete() terminates on the owning shard's lane. Serialized under
  /// the manager mutex like every other tracer call here.
  void RecordSubmit(uint64_t id, uint64_t submitted_at_us, uint64_t wait_us);

  // ---- Shard side ----
  /// Reports a finished instance: stores the result, releases its
  /// admission slot, and wakes Submit/Drain waiters. `submitted_at_us` is
  /// the wall-clock submit time (engine epoch) for the instance span.
  /// Observes submit→complete latency in engine.latency_us and closes the
  /// instance flow arrow at the completion span.
  void Complete(InstanceResult result, uint64_t submitted_at_us,
                uint64_t completed_at_us);

  // ---- Introspection ----
  uint64_t submitted() const;
  uint64_t completed() const;
  uint64_t rejected() const;
  uint64_t in_flight() const;
  uint64_t events_total() const;
  /// Moves the accumulated results out (ordered by completion).
  std::vector<InstanceResult> TakeResults();

  /// Folds the manager's private registry (engine.latency_us,
  /// engine.admission_wait_us) into `out` under the manager mutex — safe
  /// while the engine runs, which is what lets live telemetry snapshots
  /// report latency percentiles mid-run.
  void MergeMetricsInto(obs::MetricsRegistry* out) const;

 private:
  const size_t shards_;
  const size_t max_in_flight_;  // 0 = unbounded
  obs::TraceRecorder* const tracer_;

  mutable std::mutex mu_;
  std::condition_variable capacity_cv_;
  std::condition_variable drained_cv_;
  uint64_t next_id_ = 0;
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t rejected_ = 0;
  uint64_t events_total_ = 0;
  std::vector<InstanceResult> results_;
  /// Engine-level latency histograms, guarded by mu_ like everything else.
  obs::MetricsRegistry metrics_;
  obs::Histogram* latency_ = nullptr;
  obs::Histogram* admission_wait_ = nullptr;
};

}  // namespace cdes::engine

#endif  // CDES_ENGINE_INSTANCE_H_
