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

struct EngineOptions;

/// One worker: a thread owning an MPSC mailbox of EngineCommands and a set
/// of resident workflow instances it steps cooperatively (round-robin, a
/// bounded batch of run-queue steps per instance per turn — so thousands
/// of submitted instances make progress with at most
/// EngineOptions::max_resident_per_shard worlds live at once). An instance
/// world is a Simulator (FIFO run queue and stamp clock), an optional
/// EventLog and a co-located GuardScheduler that owns only the instance's
/// actors, history and stamp sequence.
///
/// Thread-confinement is the shard's whole concurrency story: the
/// WorkflowContext (arenas, alphabet), the compiled guard table, every
/// resident Simulator/GuardScheduler, and the shard's MetricsRegistry are
/// touched exclusively by the worker thread. The compiled table is
/// materialized once on that thread and shared by all resident instances
/// via CompiledWorkflowRef: it carries the guards, the dependencies and the
/// subscriber wiring, so admitting an instance only builds its actors. The
/// hash-consed arenas double as a cross-instance memo: reductions computed
/// for one instance are cache hits for every later instance in the same
/// state. Cross-thread traffic is the mailbox (mutex + condvar) and a few
/// atomic counters.
class Shard {
 public:
  /// Shard `index` of an engine running `spec` under `options`; `options`
  /// and `manager` belong to the engine, which outlives its shards.
  /// Instance spans are timed from `epoch`.
  Shard(EngineSpecRef spec, const EngineOptions& options, size_t index,
        std::chrono::steady_clock::time_point epoch,
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
  const EngineOptions& options_;
  const size_t index_;
  const std::chrono::steady_clock::time_point epoch_;
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
