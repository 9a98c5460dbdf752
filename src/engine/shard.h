#ifndef CDES_ENGINE_SHARD_H_
#define CDES_ENGINE_SHARD_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/engine_spec.h"
#include "engine/instance.h"
#include "engine/wal.h"
#include "guards/context.h"
#include "guards/workflow.h"
#include "obs/obs.h"
#include "sched/guard_scheduler.h"
#include "sim/simulator.h"

namespace cdes::engine {

/// Per-shard knobs, derived by the Engine from its EngineOptions.
struct ShardOptions {
  size_t index = 0;
  /// Cap on instances interleaved on the shard at once; commands beyond it
  /// wait in the mailbox.
  size_t max_resident = 64;
  /// Keep a per-instance EventLog and ship its serialized form in the
  /// result (enables Engine::Recover).
  bool durable_logs = false;
  /// When non-empty, mirror every resident instance's log to
  /// `<wal_dir>/<id>.log` as it runs (implies durable_logs): the on-disk
  /// WAL a crashed engine recovers from via Engine::RecoverDir.
  std::string wal_dir;
  /// Checkpoint + compact an instance's WAL once its record suffix reaches
  /// this many records (at the instance's next quiescent turn). 0 = only
  /// on explicit Engine::Checkpoint().
  size_t checkpoint_every = 0;
  /// Group commit: WAL appends buffer across residents and reach the
  /// filesystem once this many lines accumulated (or at a barrier:
  /// checkpoint, completion, idle, stop). 1 = write-through.
  size_t group_commit_records = 1;
  /// Start with the mailbox paused: commands queue but nothing runs until
  /// Resume() (deterministic backpressure tests, bench preloading).
  bool start_paused = false;
  /// Closure waves before giving up on maximality (closure can need
  /// several waves when complements park against in-flight announcements).
  size_t max_close_rounds = 16;
  /// Wall-clock epoch for instance-span timestamps.
  std::chrono::steady_clock::time_point epoch{};
  /// Shared guard profiler every resident scheduler attributes to
  /// (thread-safe; one profiler serves all shards). Null = off.
  obs::GuardProfiler* profiler = nullptr;
  /// Enable the per-instance sched.* lifecycle histograms.
  bool lifecycle_metrics = false;
};

/// One worker: a thread owning an MPSC mailbox of EngineCommands and a set
/// of resident workflow instances it steps cooperatively (round-robin, a
/// bounded batch of run-queue steps per instance per turn — so thousands
/// of submitted instances make progress with at most `max_resident` worlds
/// live at once). An instance world is a Simulator (FIFO run queue and
/// stamp clock), an optional EventLog and a co-located GuardScheduler.
///
/// Thread-confinement is the shard's whole concurrency story: the
/// WorkflowContext (arenas, alphabet), the compiled guard table, every
/// resident Simulator/GuardScheduler, and the shard's MetricsRegistry are
/// touched exclusively by the worker thread. The
/// compiled table is materialized once on that thread and shared by all
/// resident instances via CompiledWorkflowRef — the hash-consed arenas
/// double as a cross-instance memo: reductions computed for one instance
/// are cache hits for every later instance in the same state. Cross-thread
/// traffic is the mailbox (mutex + condvar) and a few atomic counters.
class Shard {
 public:
  Shard(EngineSpecRef spec, const ShardOptions& options,
        InstanceManager* manager);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Spawns the worker thread.
  void Start();
  /// Enqueues a command (any thread).
  void Push(EngineCommand cmd);
  /// Unpauses a paused mailbox (any thread).
  void Resume();
  /// Waits for the worker to finish (it exits after draining a kStop).
  void Join();
  /// Simulated kill −9 (any thread): the worker exits at its next check
  /// without finishing residents, flushing WAL buffers, or reporting
  /// results — on-disk WAL files keep only what group commit already
  /// flushed. Join() afterwards; the shard is then dead. Test/chaos hook.
  void Abort();

  // ---- Cross-thread introspection (atomics) ----
  size_t queue_depth() const { return queue_depth_.load(std::memory_order_relaxed); }
  size_t resident() const { return resident_.load(std::memory_order_relaxed); }
  uint64_t events() const { return events_.load(std::memory_order_relaxed); }
  uint64_t instances_completed() const {
    return instances_completed_.load(std::memory_order_relaxed);
  }
  uint64_t sim_steps() const {
    return sim_steps_.load(std::memory_order_relaxed);
  }

  /// The shard-private registry all resident schedulers report into
  /// ("sched.*", "engine.wal.*", cache counters). Worker-thread-confined
  /// while the shard runs: read it only after Join().
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  /// One live instance world. Members are declared in dependency order
  /// (sim and log before sched) so destruction unwinds safely.
  struct Resident {
    uint64_t id = 0;
    uint64_t submitted_at_us = 0;
    InstanceScript script;
    size_t pos = 0;
    enum class Phase { kScript, kClosing, kDone } phase = Phase::kScript;
    size_t close_rounds = 0;
    /// Log records already pushed to the WAL buffer (index into
    /// log->records(); resets to 0 when a checkpoint clears the suffix).
    size_t wal_seen = 0;
    /// Checkpoint at the next quiescent turn regardless of policy
    /// (Engine::Checkpoint / kCheckpoint command).
    bool force_checkpoint = false;
    Simulator sim;
    std::unique_ptr<EventLog> log;
    std::unique_ptr<GuardScheduler> sched;
    InstanceResult result;
  };

  void ThreadMain();
  /// Mirrors the residuator's raw hit/miss tallies into shard gauges.
  void PublishCacheGauges();
  /// Builds the instance world for a kRun/kRecover command.
  std::unique_ptr<Resident> AdmitInstance(EngineCommand cmd);
  /// One cooperative turn; returns true when the instance is finished.
  bool StepInstance(Resident& r);
  /// Seals the result and reports it to the InstanceManager.
  void Finish(Resident& r);
  /// Pushes new log records to the WAL buffer; flushes on the group-commit
  /// threshold.
  void SyncWal(Resident& r);
  /// At quiescence: checkpoint + compact the instance's log and WAL file
  /// when the policy (or a forced checkpoint) says so. Two durable phases:
  /// (1) covered records + checkpoint section appended and flushed — a
  /// crash after this recovers from the checkpoint even though the prefix
  /// is still in the file; (2) atomic rewrite of the file as header +
  /// checkpoint + empty suffix.
  void MaybeCheckpoint(Resident& r);
  uint64_t NowUs() const;

  const EngineSpecRef spec_;
  const ShardOptions options_;
  InstanceManager* const manager_;

  // ---- Worker-thread-confined state ----
  std::unique_ptr<WorkflowContext> ctx_;
  ParsedWorkflow workflow_;
  CompiledWorkflowRef compiled_;
  std::unique_ptr<ShardWal> wal_;
  obs::MetricsRegistry metrics_;

  // ---- Mailbox ----
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<EngineCommand> queue_;
  bool paused_ = false;
  /// Simulated crash switch (Abort()); checked between cooperative turns.
  std::atomic<bool> abort_{false};

  // ---- Cross-thread counters ----
  std::atomic<size_t> queue_depth_{0};
  std::atomic<size_t> resident_{0};
  std::atomic<uint64_t> events_{0};
  std::atomic<uint64_t> instances_completed_{0};
  std::atomic<uint64_t> sim_steps_{0};

  std::thread thread_;
};

}  // namespace cdes::engine

#endif  // CDES_ENGINE_SHARD_H_
