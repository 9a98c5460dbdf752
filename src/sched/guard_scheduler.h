#ifndef CDES_SCHED_GUARD_SCHEDULER_H_
#define CDES_SCHED_GUARD_SCHEDULER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "guards/workflow.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "runtime/checkpoint.h"
#include "runtime/event_actor.h"
#include "runtime/event_log.h"
#include "runtime/reliable_transport.h"
#include "sched/scheduler_obs.h"
#include "sim/network.h"
#include "spec/ast.h"

namespace cdes {

struct GuardSchedulerOptions {
  /// Enable the conditional-promise consensus of Example 11.
  bool enable_promises = true;
  /// When set, every occurrence is appended (stamp + literal) before it is
  /// announced; GuardScheduler::Recover replays such a log after a crash.
  EventLog* durable_log = nullptr;
  /// When set, "sched.*" counters and histograms report into this registry;
  /// otherwise a private registry backs stats(). The lifecycle counters
  /// (attempts, decisions, parks, occurrences) are recorded either way;
  /// installing a registry (or a tracer) adds the decision-latency and
  /// parked-depth histograms (SchedulerObs).
  obs::MetricsRegistry* metrics = nullptr;
  /// When set, records event-lifecycle spans (attempt → parked →
  /// enabled/rejected), occurrence instants, per-kind protocol sends, and
  /// promise request→grant spans. Null ⇒ every trace site is one
  /// branch-on-null.
  obs::TraceRecorder* tracer = nullptr;
  /// When set, guard evaluations are profiled per (dependency, event) site:
  /// every firability check an actor makes counts one evaluation at each
  /// site of the literal, and the check's residuation steps, new guard
  /// nodes, and sampled wall time are split across those sites by their
  /// contributions' DAG node counts (GuardNodeCount). The check itself runs
  /// the same path as without a profiler. The profiler may be shared across
  /// schedulers and threads (engine shards register into one).
  obs::GuardProfiler* profiler = nullptr;
  /// Trace id stamped (with a fresh span id) on every protocol message when
  /// a tracer is installed, so announcements, promises, and retransmits
  /// carry causal context across sites; exporters join the send and the
  /// delivery into one flow arrow. The engine sets this to the workflow
  /// instance id.
  uint64_t trace_id = 0;
  /// Has no effect: the lifecycle metrics are recorded where each
  /// decision is made, on the one path. Kept for callers that still set
  /// it.
  bool lifecycle_instrumentation = true;
};

/// Message-kind breakdown of the runtime traffic (the paper's message
/// protocol of §4.3: occurrence announcements, promises, promise requests,
/// and proactive triggers). Snapshot view assembled from the metrics
/// registry, kept for source compatibility; the registry is ground truth.
struct GuardSchedulerStats {
  uint64_t announcements = 0;
  uint64_t promises = 0;
  uint64_t promise_requests = 0;
  uint64_t triggers = 0;

  uint64_t total() const {
    return announcements + promises + promise_requests + triggers;
  }
};

/// The paper's contribution: the distributed, event-centric scheduler
/// (§4). One EventActor per event symbol lives at the site of its owning
/// agent; each actor holds precompiled guards for its two literals and
/// decides occurrences purely from local state plus incoming announcements
/// and promises. There is no central component: every message is
/// actor-to-actor, through the simulated network or, for co-located
/// actors, through the simulator's run queue.
///
/// Everything static lives in the installed CompiledWorkflow tables, which
/// many schedulers may share: the compiled guards, the dependencies, and
/// who subscribes to whose announcements (CompiledWorkflow::SubscribersOf).
/// A scheduler owns only what differs between instances: one actor per
/// installed symbol, in a dense SymbolId-indexed table whose slots point at
/// the compiled table they came from, plus the history and the stamp
/// sequence.
class GuardScheduler : public Scheduler, public ActorHost {
 public:
  /// Compiles `workflow` in `ctx` and instantiates actors on `network`'s
  /// sites. Events without an agent (or agents without a site) live at
  /// site 0.
  GuardScheduler(WorkflowContext* ctx, const ParsedWorkflow& workflow,
                 Network* network, const GuardSchedulerOptions& options = {});

  /// Like the above, but reuses an already compiled guard table instead of
  /// synthesizing one: `compiled` must have been produced from
  /// `workflow.spec` in `ctx` (same arenas). This is the multi-instance
  /// fast path — the engine compiles a spec once per shard and constructs
  /// thousands of instance schedulers against the same immutable table,
  /// skipping the exponential per-dependency canonicalization and the
  /// subscription wiring each time.
  GuardScheduler(WorkflowContext* ctx, CompiledWorkflowRef compiled,
                 const ParsedWorkflow& workflow, Network* network,
                 const GuardSchedulerOptions& options = {});

  /// Co-located actors (the engine's instance worlds): no network, no
  /// reliable-delivery layer, no RNG. Attempts and messages are posted on
  /// `sim` at zero delay and run in send order — with every attempt run to
  /// quiescence and every actor on its own site, the order a zero-jitter
  /// Network delivers in.
  GuardScheduler(WorkflowContext* ctx, CompiledWorkflowRef compiled,
                 const ParsedWorkflow& workflow, Simulator* sim,
                 const GuardSchedulerOptions& options = {});

  /// Installs a further workflow instance at runtime (§5.1: "Attempting
  /// some key event binds the parameters of all events, thus instantiating
  /// the workflow afresh"): compiles it, creates actors for its events, and
  /// leaves scheduling of existing instances unaffected. The new instance's
  /// symbols must be disjoint from every installed instance's (instances
  /// from a WorkflowTemplate are, by construction of the mangled names).
  Status AddInstance(const ParsedWorkflow& workflow);

  /// AddInstance against a precompiled guard table (see the shared-compile
  /// constructor); retains a reference so the table outlives the actors.
  Status AddInstanceCompiled(CompiledWorkflowRef compiled,
                             const ParsedWorkflow& workflow);

  // ---- Scheduler interface ----
  /// Schedules the attempt at the owning actor's site (agents are
  /// co-located with their events; the attempt itself crosses no link).
  void Attempt(EventLiteral literal, AttemptCallback done) override;
  const Trace& history() const override { return history_; }
  std::string name() const override { return "guard-distributed"; }
  void AddOccurrenceListener(
      std::function<void(EventLiteral)> listener) override {
    listeners_.push_back(std::move(listener));
  }

  // ---- Introspection ----
  /// The current (reduced) guard of a literal.
  const Guard* CurrentGuardOf(EventLiteral literal) const;
  /// The compiled (initial) guard of a literal.
  const Guard* CompiledGuardOf(EventLiteral literal) const;
  EventActor* actor(SymbolId symbol);
  size_t parked_count() const;
  size_t violations() const { return violations_; }
  /// Message-kind counters, read out of the metrics registry.
  GuardSchedulerStats stats() const;
  /// The registry the "sched.*" metrics report into (installed or private).
  obs::MetricsRegistry* metrics() const { return obs_.metrics(); }
  obs::TraceRecorder* tracer() const { return obs_.tracer(); }
  /// The guard profiler evaluations report into, or nullptr.
  obs::GuardProfiler* profiler() const { return options_.profiler; }
  /// The simulator attempts and messages run on (the stamp clock).
  Simulator* sim() const { return sim_; }
  /// The exactly-once delivery layer protocol messages ride on over a
  /// Network, or nullptr for co-located actors.
  ReliableTransport* transport() const { return transport_.get(); }
  /// Symbols of all installed instances, ascending.
  std::vector<SymbolId> symbols() const;

  /// Drives the computation toward a maximal trace (the universe U_T over
  /// which guards are interpreted) in one wave: attempts the complement of
  /// every still undecided symbol once, in symbol order. Complements whose
  /// guard is not yet establishable park and resolve as other closures
  /// land. Call Simulator::Run afterwards; once the run queue drains, the
  /// computation is maximal, or Undecided() names what stays open and
  /// DiagnoseParked why. A second wave would decide nothing: at quiescence
  /// nothing is in flight, an actor's state changes only when it receives a
  /// message, which already re-evaluates its parked attempts, and a
  /// repeated complement meets the same reduced guard, so it joins its
  /// parked entry (its promise requests and triggers already sent) or is
  /// rejected again.
  /// One exception is known, found over a jittered Network (co-located
  /// worlds have shown none): an actor that holds conditional promises for
  /// both polarities of a symbol can reject a parked complement on a guard
  /// those promises reduce to 0 and that a later announcement lifts, and
  /// nothing attempts it again (see
  /// ClosureWaveTest.ConflictingPromisesLeaveWorkForASecondWave).
  void Close();

  /// Symbols no event (of either polarity) has decided yet.
  std::vector<SymbolId> Undecided() const;

  /// Rebuilds state from a durable log written by a previous (crashed)
  /// scheduler over the same workflow: decided events, per-actor
  /// knowledge, reduced guards, and the history are reconstructed exactly.
  /// A v3 log's checkpoint section, when present, stands in for the record
  /// prefix it covers — its payload restores the history, stamp sequence,
  /// per-actor heard-residual baselines, and transport watermarks directly,
  /// and only the suffix records are replayed. Promises and trigger
  /// obligations are soft state: they are not logged and are re-derived on
  /// demand (a parked attempt re-emits its promise requests). Must be
  /// called on a freshly constructed scheduler, before any attempts.
  Status Recover(const EventLog& log);

  /// Captures the durable portion of the live state as a checkpoint:
  /// history, stamp sequence, instance clock, heard-residual baselines of
  /// undecided actors whose guards have moved off the compiled table
  /// (pointer comparison — arenas hash-cons), and transport watermarks
  /// (none for co-located actors; Recover then ignores `chan` lines).
  /// Requires quiescence (no simulator events or transport frames in
  /// flight): a cut taken mid-announcement would capture one actor before
  /// hearing an occurrence that nobody will re-announce after recovery.
  /// Feeding the result through SerializeCheckpoint / EventLog's v3
  /// checkpoint section and back through Recover reproduces this
  /// scheduler's reduced guards exactly.
  CheckpointState Snapshot() const;
  /// True iff the history satisfies every dependency "so far" (no
  /// dependency residual is 0); with `maximal`, requires full satisfaction.
  bool HistoryConsistent(bool require_satisfaction = false) const;

  // ---- ActorHost interface (used by actors) ----
  void Broadcast(SymbolId from, const RuntimeMessage& msg) override;
  void SendTo(SymbolId from, SymbolId target,
              const RuntimeMessage& msg) override;
  OccurrenceStamp NextStamp() override;
  void RecordOccurrence(EventLiteral literal, OccurrenceStamp stamp) override;
  void RecordViolation(EventLiteral) override {
    ++violations_;
    obs_.CountViolation();
  }
  bool MayTrigger(EventLiteral literal) const override;
  bool PromisesEnabled() const override { return options_.enable_promises; }
  GuardArena* guard_arena() override { return ctx_->guards(); }
  Residuator* residuator() override { return ctx_->residuator(); }
  ReductionCache* reduction_cache() override {
    return ctx_->reduction_cache();
  }
  SchedulerObs* lifecycle() override { return &obs_; }

 private:
  /// One installed symbol: its actor and the compiled table it came from
  /// (which holds its compiled guards and its subscribers).
  struct ActorSlot {
    std::unique_ptr<EventActor> actor;
    const CompiledWorkflow* compiled = nullptr;
  };

  /// Shared constructor body: resolves metric handles and installs the
  /// first instance.
  void Init(const ParsedWorkflow& workflow, CompiledWorkflowRef compiled);
  void CountMessage(RuntimeMessageKind kind);
  /// Counts, traces and delivers one protocol message to `to`.
  void Send(SymbolId from, int src_site, EventActor* to,
            const RuntimeMessage& msg);
  /// Hands one delivery to the transport, or, for co-located actors, posts
  /// it on the run queue at zero delay.
  void Deliver(int src_site, int dst_site, Simulator::Callback fn);
  /// O(1) actor lookup through the dense table; nullptr when `symbol` has
  /// no actor in this scheduler.
  EventActor* FindActor(SymbolId symbol) const {
    return symbol < actors_.size() ? actors_[symbol].actor.get() : nullptr;
  }
  /// The subscribers of an installed symbol (its compiled table's
  /// SubscribersOf).
  const std::vector<SymbolId>& SubscribersOf(SymbolId symbol) const {
    return actors_[symbol].compiled->SubscribersOf(symbol);
  }
  void TraceSend(SymbolId from, SymbolId target, const RuntimeMessage& msg);
  /// Assimilation instant + flow-arrow end at the destination actor; runs
  /// at final delivery (after any retransmits), so the arrow connects the
  /// original send to the delivery that actually landed.
  void TraceDeliver(const RuntimeMessage& msg, const EventActor* to);

  WorkflowContext* ctx_;
  Simulator* sim_;
  /// Null for co-located actors.
  std::unique_ptr<ReliableTransport> transport_;
  GuardSchedulerOptions options_;
  /// The installed compiled tables, in install order, kept alive for the
  /// slots that point into them.
  std::vector<CompiledWorkflowRef> installed_;
  /// Some installed table is impossible (an unsatisfiable dependency).
  bool impossible_ = false;
  /// SymbolId-indexed actor table (empty slots for symbols not installed
  /// here): O(1) lookup on every message and log record, and iteration in
  /// ascending symbol order.
  std::vector<ActorSlot> actors_;
  /// Per-actor site tables when options_.profiler is set (node-stable map:
  /// actors hold pointers into it).
  std::map<SymbolId, GuardProfile> profiles_;
  Trace history_;
  std::vector<std::function<void(EventLiteral)>> listeners_;
  uint64_t next_seq_ = 0;
  size_t violations_ = 0;

  // ---- Observability (see docs/OBSERVABILITY.md) ----
  /// The lifecycle metrics and trace; the actors record their decisions
  /// here (ActorHost::lifecycle).
  SchedulerObs obs_;
  /// Message-kind counters (always on; they replace the old stats_ struct).
  obs::Counter* sent_announcements_ = nullptr;
  obs::Counter* sent_promises_ = nullptr;
  obs::Counter* sent_promise_requests_ = nullptr;
  obs::Counter* sent_triggers_ = nullptr;
  /// Span-id generator for causal trace contexts (0 = unstamped).
  uint64_t next_span_id_ = 0;
};

}  // namespace cdes

#endif  // CDES_SCHED_GUARD_SCHEDULER_H_
