#include "engine/shard.h"

#include <utility>

#include "common/strings.h"
#include "engine/engine.h"
#include "runtime/checkpoint.h"
#include "runtime/event_log.h"
#include "sched/diagnostics.h"

namespace cdes::engine {
namespace {

/// Run-queue steps one instance may execute per cooperative turn before
/// yielding to the next resident instance.
constexpr size_t kStepBatch = 64;

}  // namespace

Shard::Shard(EngineSpecRef spec, const EngineOptions& options, size_t index,
             std::chrono::steady_clock::time_point epoch,
             InstanceManager* manager)
    : spec_(std::move(spec)),
      options_(options),
      index_(index),
      epoch_(epoch),
      manager_(manager) {
  paused_ = options_.start_paused;
}

Shard::~Shard() { Join(); }

void Shard::Start() {
  CDES_CHECK(!thread_.joinable());
  thread_ = std::thread([this] { ThreadMain(); });
}

void Shard::Push(EngineCommand cmd) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(cmd));
    queue_depth_.store(queue_.size(), std::memory_order_relaxed);
  }
  cv_.notify_one();
}

void Shard::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_one();
}

void Shard::Join() {
  if (thread_.joinable()) thread_.join();
}

void Shard::Abort() {
  abort_.store(true, std::memory_order_relaxed);
  cv_.notify_one();
}

uint64_t Shard::NowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Shard::ThreadMain() {
  // Materialize and compile the workflow once, on this thread, into this
  // shard's private context. The EngineSpec was validated at construction,
  // so failure here is a bug, not an input error.
  ctx_ = std::make_unique<WorkflowContext>();
  Result<ParsedWorkflow> parsed = spec_->Materialize(ctx_.get());
  CDES_CHECK(parsed.ok()) << parsed.status();
  workflow_ = std::move(parsed).value();
  compiled_ = CompileWorkflowShared(ctx_.get(), workflow_.spec);
  reduction_hits_ = metrics_.gauge("guards.reduction_cache_hits");
  reduction_misses_ = metrics_.gauge("guards.reduction_cache_misses");
  residuation_hits_ = metrics_.gauge("algebra.residuation_cache_hits");
  residuation_misses_ = metrics_.gauge("algebra.residuation_cache_misses");
  if (!options_.wal_dir.empty()) {
    wal_ = std::make_unique<ShardWal>(options_.wal_dir,
                                      options_.group_commit_records);
    wal_records_ = metrics_.counter("engine.wal.records");
    group_commits_ = metrics_.counter("engine.wal.group_commits");
    checkpoints_ = metrics_.counter("engine.checkpoints");
    wal_errors_ = metrics_.counter("engine.wal.errors");
  }

  std::vector<std::unique_ptr<Resident>> active;
  bool stopping = false;
  while (true) {
    if (abort_.load(std::memory_order_relaxed)) return;  // simulated kill
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Idle shard: block until work arrives (or a pause lifts). A shard
      // with resident instances never blocks — it polls the mailbox
      // between turns. Going idle is a group-commit barrier: nothing else
      // would flush the buffered tail while we sleep.
      if (active.empty() && !stopping) {
        if (wal_ != nullptr) wal_->FlushAll();
        cv_.wait(lock, [this] {
          return abort_.load(std::memory_order_relaxed) ||
                 (!paused_ && !queue_.empty());
        });
        if (abort_.load(std::memory_order_relaxed)) return;
      }
      while (!paused_ && !queue_.empty() &&
             active.size() < options_.max_resident_per_shard) {
        EngineCommand cmd = std::move(queue_.front());
        queue_.pop_front();
        queue_depth_.store(queue_.size(), std::memory_order_relaxed);
        if (cmd.kind == EngineCommand::Kind::kStop) {
          stopping = true;
          break;
        }
        if (cmd.kind == EngineCommand::Kind::kCheckpoint) {
          // Checkpoints happen at quiescent turns; mark every resident so
          // each takes one at its next opportunity.
          for (auto& r : active) r->force_checkpoint = true;
          continue;
        }
        lock.unlock();  // world construction happens outside the mailbox
        active.push_back(AdmitInstance(std::move(cmd)));
        resident_.store(active.size(), std::memory_order_relaxed);
        lock.lock();
      }
    }
    if (active.empty()) {
      if (stopping) break;
      continue;
    }
    // One cooperative turn per resident instance, in admission order.
    for (auto it = active.begin(); it != active.end();) {
      if (abort_.load(std::memory_order_relaxed)) return;
      if (StepInstance(**it)) {
        Finish(**it);
        it = active.erase(it);
        resident_.store(active.size(), std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
    PublishCacheGauges();
  }
  // Stop barrier: whatever group commit still holds goes to disk before
  // the worker exits.
  if (wal_ != nullptr) wal_->FlushAll();
  PublishCacheGauges();
}

void Shard::PublishCacheGauges() {
  // Both caches are pure symbolic machinery with raw hit/miss tallies;
  // mirror them into gauges here so live telemetry and the post-Stop merged
  // registry both see symbolic-cache effectiveness without obs leaking into
  // temporal/ or algebra/.
  const ReductionCache* reductions = ctx_->reduction_cache();
  reduction_hits_->Set(static_cast<double>(reductions->hits()));
  reduction_misses_->Set(static_cast<double>(reductions->misses()));
  const Residuator* res = ctx_->residuator();
  residuation_hits_->Set(static_cast<double>(res->cache_hits()));
  residuation_misses_->Set(static_cast<double>(res->cache_misses()));
}

std::unique_ptr<Shard::Resident> Shard::AdmitInstance(EngineCommand cmd) {
  auto r = std::make_unique<Resident>();
  r->id = cmd.id;
  r->submitted_at_us = cmd.submitted_at_us;
  r->script = std::move(cmd.script);
  r->result.id = cmd.id;
  r->result.tag = r->script.tag;
  r->result.shard = index_;

  GuardSchedulerOptions sopts;
  sopts.metrics = &metrics_;
  sopts.profiler = options_.profiler;
  // Flow / trace correlation: messages inside this instance's world carry
  // the instance id as their trace id.
  sopts.trace_id = cmd.id;
  if (options_.durable_logs || wal_ != nullptr) {
    r->log = std::make_unique<EventLog>();
    r->log->set_instance(cmd.id);
    sopts.durable_log = r->log.get();
  }
  r->sched = std::make_unique<GuardScheduler>(ctx_.get(), compiled_,
                                              workflow_, &r->sim, sopts);

  if (cmd.kind == EngineCommand::Kind::kRecover) {
    // Rebuild pre-crash state from the serialized log. LoadTolerant is the
    // point: a log torn by a crash mid-append loses only its final record
    // (or a checkpoint section torn at EOF, which its covered records
    // replace).
    r->phase = Resident::Phase::kClosing;
    bool dropped_torn_tail = false;
    auto log = EventLog::LoadTolerant(*ctx_->alphabet(), cmd.log_text,
                                      &dropped_torn_tail);
    if (dropped_torn_tail) {
      r->result.diagnosis =
          "recovery log ended in a torn record, which was dropped\n";
    }
    if (!log.ok()) {
      r->result.error = StrCat("recovery log unreadable: ",
                               log.status().ToString());
      r->phase = Resident::Phase::kDone;
      return r;
    }
    Status recovered = r->sched->Recover(log.value());
    if (!recovered.ok()) {
      r->result.error = StrCat("recovery failed: ", recovered.ToString());
      r->phase = Resident::Phase::kDone;
      return r;
    }
    if (r->log != nullptr) {
      // Seed the new durable log with the recovered image — checkpoint
      // section and suffix records both — so a second crash still has the
      // full story. The scheduler's durable_log pointer is stable across
      // this assignment.
      *r->log = log.value();
      r->log->set_instance(cmd.id);
      r->wal_seen = r->log->records().size();
    }
    if (log.value().total_records() > 0) {
      // Resume the instance clock at the crash point so post-recovery
      // stamps stay monotone with the recovered prefix.
      r->sim.RunUntil(log.value().last_stamp().time);
    }
  }
  if (wal_ != nullptr && r->log != nullptr &&
      r->phase != Resident::Phase::kDone) {
    // The WAL file exists from the first moment the instance might write
    // records; on recovery it is rebuilt as the recovered image (the old
    // file may have had a torn tail or belong to a pre-compaction state).
    wal_->Create(r->id, r->log->SerializeOpen(*ctx_->alphabet()));
  }
  return r;
}

bool Shard::StepInstance(Resident& r) {
  if (r.sim.pending() > 0) {
    sim_steps_.fetch_add(r.sim.Run(kStepBatch),
                         std::memory_order_relaxed);
    SyncWal(r);  // records the batch just produced, on group-commit terms
    if (r.sim.pending() > 0) return false;  // yield; more next turn
  }
  // The instance world is quiescent — the only cut where a checkpoint is
  // consistent (no announcement is in flight between actors).
  MaybeCheckpoint(r);
  // Advance the script state machine.
  switch (r.phase) {
    case Resident::Phase::kScript: {
      if (r.pos < r.script.attempts.size()) {
        const std::string& name = r.script.attempts[r.pos++];
        Result<EventLiteral> literal = ctx_->alphabet()->ParseLiteral(name);
        if (!literal.ok()) {
          r.result.error = StrCat("unknown event '", name, "'");
          r.phase = Resident::Phase::kDone;
          return true;
        }
        InstanceResult* result = &r.result;
        r.sched->Attempt(literal.value(), [result](Decision d) {
          if (d == Decision::kAccepted) ++result->accepted;
          if (d == Decision::kRejected) ++result->rejected;
        });
        return false;
      }
      if (!r.script.close) {
        r.phase = Resident::Phase::kDone;
        return true;
      }
      r.phase = Resident::Phase::kClosing;
      return false;
    }
    case Resident::Phase::kClosing: {
      if (r.sched->Undecided().empty()) {
        r.phase = Resident::Phase::kDone;
        return true;
      }
      // One wave: once it settles the instance is maximal or no further
      // wave would make it so (GuardScheduler::Close).
      r.sched->Close();
      r.phase = Resident::Phase::kClosed;
      return false;
    }
    case Resident::Phase::kClosed:
    case Resident::Phase::kDone:
      return true;
  }
  return true;
}

void Shard::SyncWal(Resident& r) {
  if (wal_ == nullptr || r.log == nullptr) return;
  const std::vector<EventLog::Record>& records = r.log->records();
  CDES_CHECK(r.wal_seen <= records.size());
  for (size_t i = r.wal_seen; i < records.size(); ++i) {
    wal_->Append(r.id, EventLog::RecordLine(records[i], *ctx_->alphabet()));
    wal_records_->Increment();
  }
  r.wal_seen = records.size();
  if (wal_->ShouldFlush()) {
    // Group commit: one filesystem pass covers every resident's buffered
    // appends, not just this instance's.
    wal_->FlushAll();
    group_commits_->Increment();
  }
}

void Shard::MaybeCheckpoint(Resident& r) {
  if (wal_ == nullptr || r.log == nullptr || r.sched == nullptr) return;
  if (r.phase == Resident::Phase::kDone || !r.result.error.empty()) return;
  bool due = r.force_checkpoint ||
             (options_.checkpoint_every > 0 &&
              r.log->records().size() >= options_.checkpoint_every);
  r.force_checkpoint = false;
  if (!due || r.log->records().empty()) return;
  // Phase 1 — durable checkpoint: covered records first, then the section
  // appended behind them, flushed as one barrier. A crash after this
  // leaves prefix + checkpoint in the file; recovery takes the checkpoint
  // (last intact one wins) and the prefix is dead weight.
  SyncWal(r);
  EventLog::CheckpointSection section;
  section.covered = r.log->total_records();
  section.last_stamp = r.log->last_stamp();
  section.payload =
      SerializeCheckpoint(r.sched->Snapshot(), *ctx_->alphabet());
  wal_->Append(r.id, EventLog::SectionText(section));
  if (Status flushed = wal_->Flush(r.id); !flushed.ok()) {
    wal_errors_->Increment();
    return;  // no compaction without a durable checkpoint
  }
  // Phase 2 — compact: install in memory, then atomically rewrite the file
  // as header + checkpoint + empty suffix. rename(2) makes the rewrite
  // all-or-nothing; a crash between the phases is exactly the state
  // phase 1 made durable.
  r.log->InstallCheckpoint(std::move(section));
  r.wal_seen = 0;
  if (Status rewrote =
          wal_->Rewrite(r.id, r.log->SerializeOpen(*ctx_->alphabet()));
      !rewrote.ok()) {
    wal_errors_->Increment();
    return;  // in-memory state is still coherent; the file keeps phase 1
  }
  checkpoints_->Increment();
}

void Shard::Finish(Resident& r) {
  if (r.result.error.empty()) {
    r.result.events = r.sched->history().size();
    r.result.maximal = r.sched->Undecided().empty();
    // A maximal trace must satisfy every dependency outright; a partial
    // one only has to keep every residual satisfiable.
    r.result.consistent = r.sched->HistoryConsistent(r.result.maximal);
    r.result.history = TraceToString(r.sched->history(), *ctx_->alphabet());
    if (!r.result.maximal && r.phase == Resident::Phase::kClosed) {
      std::vector<std::string> undecided;
      for (SymbolId s : r.sched->Undecided()) {
        undecided.push_back(ctx_->alphabet()->Name(s));
      }
      r.result.diagnosis +=
          StrCat("not maximal after closure; undecided {",
                 StrJoin(undecided, ", "), "}\n",
                 DiagnosisToString(DiagnoseParked(ctx_.get(), r.sched.get()),
                                   *ctx_->alphabet()));
    }
    if (r.log != nullptr) {
      r.result.log_text = r.log->Serialize(*ctx_->alphabet());
    }
  }
  if (wal_ != nullptr && r.log != nullptr) {
    // The instance is complete: its durable record is the sealed log in
    // the result, and the in-flight WAL file (plus any buffered tail)
    // retires with it — RecoverDir must only resurrect unfinished work.
    wal_->Remove(r.id);
  }
  events_.fetch_add(r.result.events, std::memory_order_relaxed);
  instances_completed_.fetch_add(1, std::memory_order_relaxed);
  manager_->Complete(std::move(r.result), r.submitted_at_us, NowUs());
}

}  // namespace cdes::engine
