#include "sched/guard_scheduler.h"

#include <limits>

#include "algebra/semantics.h"
#include "common/strings.h"

namespace cdes {
namespace {

/// Estimated bytes per protocol message, for network accounting.
constexpr size_t kMessageBytes = 48;

}  // namespace

std::string DecisionToString(Decision d) {
  switch (d) {
    case Decision::kAccepted:
      return "accepted";
    case Decision::kRejected:
      return "rejected";
    case Decision::kParked:
      return "parked";
  }
  return "unknown";
}

GuardScheduler::GuardScheduler(WorkflowContext* ctx,
                               const ParsedWorkflow& workflow,
                               Network* network,
                               const GuardSchedulerOptions& options)
    : GuardScheduler(ctx, CompileWorkflowShared(ctx, workflow.spec),
                     workflow, network, options) {}

GuardScheduler::GuardScheduler(WorkflowContext* ctx,
                               CompiledWorkflowRef compiled,
                               const ParsedWorkflow& workflow,
                               Network* network,
                               const GuardSchedulerOptions& options)
    : ctx_(ctx), sim_(network->sim()),
      transport_(std::make_unique<ReliableTransport>(network)),
      options_(options) {
  CDES_CHECK(compiled != nullptr);
  Init(workflow, std::move(compiled));
}

GuardScheduler::GuardScheduler(WorkflowContext* ctx,
                               CompiledWorkflowRef compiled,
                               const ParsedWorkflow& workflow, Simulator* sim,
                               const GuardSchedulerOptions& options)
    : ctx_(ctx), sim_(sim), options_(options) {
  CDES_CHECK(compiled != nullptr);
  Init(workflow, std::move(compiled));
}

void GuardScheduler::Init(const ParsedWorkflow& workflow,
                          CompiledWorkflowRef compiled) {
  obs_.Init(options_.metrics, options_.tracer, ctx_->alphabet(), sim_);
  obs::MetricsRegistry* metrics = obs_.metrics();
  sent_announcements_ = metrics->counter("sched.msgs.announce");
  sent_promises_ = metrics->counter("sched.msgs.promise");
  sent_promise_requests_ = metrics->counter("sched.msgs.promise_request");
  sent_triggers_ = metrics->counter("sched.msgs.trigger");
  Status installed = AddInstanceCompiled(std::move(compiled), workflow);
  CDES_CHECK(installed.ok()) << installed;
}

GuardSchedulerStats GuardScheduler::stats() const {
  GuardSchedulerStats out;
  out.announcements = sent_announcements_->value();
  out.promises = sent_promises_->value();
  out.promise_requests = sent_promise_requests_->value();
  out.triggers = sent_triggers_->value();
  return out;
}

Status GuardScheduler::AddInstance(const ParsedWorkflow& workflow) {
  return AddInstanceCompiled(CompileWorkflowShared(ctx_, workflow.spec),
                             workflow);
}

Status GuardScheduler::AddInstanceCompiled(CompiledWorkflowRef compiled,
                                           const ParsedWorkflow& workflow) {
  const std::set<SymbolId>& symbols = compiled->symbols();
  for (SymbolId symbol : symbols) {
    if (FindActor(symbol) != nullptr) {
      return Status::AlreadyExists(StrCat(
          "instance shares event symbol '", ctx_->alphabet()->Name(symbol),
          "' with an installed instance; instances must be symbol-disjoint"));
    }
  }
  impossible_ |= compiled->impossible();
  if (!symbols.empty() && actors_.size() <= *symbols.rbegin()) {
    actors_.resize(*symbols.rbegin() + 1);
  }
  for (SymbolId symbol : symbols) {
    int site = 0;
    EventAttributes attrs;
    const EventDecl* decl = workflow.FindEvent(symbol);
    if (decl != nullptr) {
      attrs = decl->attrs;
      const AgentDecl* agent = workflow.FindAgent(decl->agent);
      if (agent != nullptr) site = agent->site;
    }
    EventLiteral pos = EventLiteral::Positive(symbol);
    EventLiteral neg_lit = EventLiteral::Complement(symbol);
    ActorSlot& slot = actors_[symbol];
    slot.compiled = compiled.get();
    // The complement literal is scheduler bookkeeping ("e will never
    // occur"): delayable and rejectable, never user-triggerable.
    EventAttributes negative;
    slot.actor = std::make_unique<EventActor>(
        this, symbol, site, compiled->GuardFor(pos),
        compiled->GuardFor(neg_lit), attrs, negative);
    if (options_.profiler != nullptr) {
      // One (dependency, event) site per contribution to the compiled
      // conjunction (deduplicated profiler-wide, carrying the dependency's
      // spec location), weighted by the contribution's flat-op count.
      GuardProfile& profile = profiles_[symbol];
      profile.profiler = options_.profiler;
      for (EventLiteral l : {pos, neg_lit}) {
        std::vector<GuardProfile::Share>& dst =
            l.complemented() ? profile.negative : profile.positive;
        for (const auto& [di, g] : compiled->ContributionsFor(l)) {
          const Dependency& dep = compiled->dependencies()[di];
          dst.push_back(GuardProfile::Share{
              options_.profiler->RegisterSite(
                  dep.name, ctx_->alphabet()->LiteralName(l), dep.loc),
              ctx_->flat_evaluator()->ProgramFor(g).ops.size()});
        }
      }
      slot.actor->set_profile(&profile);
    }
    if (obs::TraceRecorder* tracer = obs_.tracer(); tracer != nullptr) {
      tracer->NameProcess(site, StrCat("site ", site));
      tracer->NameLane(site, symbol,
                       StrCat("actor ", ctx_->alphabet()->Name(symbol)));
    }
  }
  installed_.push_back(std::move(compiled));
  return Status::OK();
}

const Guard* GuardScheduler::CompiledGuardOf(EventLiteral literal) const {
  if (FindActor(literal.symbol()) == nullptr) return ctx_->guards()->True();
  return actors_[literal.symbol()].compiled->GuardFor(literal);
}

void GuardScheduler::Attempt(EventLiteral literal, AttemptCallback done) {
  EventActor* actor = FindActor(literal.symbol());
  int site = actor != nullptr ? actor->site() : 0;
  obs_.CountAttempt(literal, site);
  if (impossible_ || actor == nullptr) {
    // Some dependency is unsatisfiable: no event can ever be part of an
    // acceptable computation. Otherwise an event no dependency mentions is
    // not significant for coordination (§2): it occurs immediately and is
    // not recorded. (Recording it would also break trace validity for
    // looping tasks, whose repeated internal events are exactly the
    // insignificant ones — §5.2.)
    Decision d = impossible_ ? Decision::kRejected : Decision::kAccepted;
    obs_.Decided(literal, d, site);
    obs_.ObserveLatency(obs_.now());
    if (done) done(d);
    return;
  }
  // The actor records its own answer (EventActor::Attempt).
  sim_->Schedule(0, [actor, literal, done = std::move(done)] {
    actor->Attempt(literal, done);
  });
}

const Guard* GuardScheduler::CurrentGuardOf(EventLiteral literal) const {
  const EventActor* actor = FindActor(literal.symbol());
  return actor == nullptr ? ctx_->guards()->True()
                          : actor->CurrentGuard(literal);
}

EventActor* GuardScheduler::actor(SymbolId symbol) {
  return FindActor(symbol);
}

std::vector<SymbolId> GuardScheduler::symbols() const {
  std::vector<SymbolId> out;
  for (const ActorSlot& slot : actors_) {
    if (slot.actor != nullptr) out.push_back(slot.actor->symbol());
  }
  return out;
}

size_t GuardScheduler::parked_count() const {
  size_t n = 0;
  for (const ActorSlot& slot : actors_) {
    if (slot.actor != nullptr) n += slot.actor->parked_count();
  }
  return n;
}

void GuardScheduler::Close() {
  for (SymbolId s : Undecided()) {
    Attempt(EventLiteral::Complement(s), AttemptCallback());
  }
}

std::vector<SymbolId> GuardScheduler::Undecided() const {
  std::vector<SymbolId> out;
  for (const ActorSlot& slot : actors_) {
    if (slot.actor != nullptr && !slot.actor->decided()) {
      out.push_back(slot.actor->symbol());
    }
  }
  return out;
}

bool GuardScheduler::HistoryConsistent(bool require_satisfaction) const {
  for (const CompiledWorkflowRef& compiled : installed_) {
    const std::vector<Dependency>& deps = compiled->dependencies();
    for (size_t di = 0; di < deps.size(); ++di) {
      // Only the history literals whose symbol the dependency mentions
      // change its residual.
      const Expr* residual = ctx_->residuator()->ResiduateTrace(
          deps[di].expr, history_, compiled->DependencySymbols(di));
      if (require_satisfaction) {
        if (!residual->IsTop()) return false;
      } else if (residual->IsZero()) {
        return false;
      }
    }
  }
  return true;
}

namespace {

const char* MessageKindName(RuntimeMessageKind kind) {
  switch (kind) {
    case RuntimeMessageKind::kAnnounce:
      return "announce";
    case RuntimeMessageKind::kPromise:
      return "promise";
    case RuntimeMessageKind::kRequestPromise:
      return "promise_request";
    case RuntimeMessageKind::kTrigger:
      return "trigger";
  }
  return "unknown";
}

}  // namespace

void GuardScheduler::CountMessage(RuntimeMessageKind kind) {
  switch (kind) {
    case RuntimeMessageKind::kAnnounce:
      sent_announcements_->Increment();
      break;
    case RuntimeMessageKind::kPromise:
      sent_promises_->Increment();
      break;
    case RuntimeMessageKind::kRequestPromise:
      sent_promise_requests_->Increment();
      break;
    case RuntimeMessageKind::kTrigger:
      sent_triggers_->Increment();
      break;
  }
}

void GuardScheduler::TraceSend(SymbolId from, SymbolId target,
                               const RuntimeMessage& msg) {
  obs::TraceRecorder* tracer = obs_.tracer();
  const Alphabet& alphabet = *ctx_->alphabet();
  int src_site = FindActor(from)->site();
  SimTime now = sim_->now();
  if (msg.span_id != 0) {
    // Flow arrow origin; TraceDeliver emits the matching end at the
    // destination when the message finally lands.
    tracer->FlowStart(obs::SpanCategory::kMessage, MessageKindName(msg.kind),
                      msg.span_id, now, src_site, from);
  }
  switch (msg.kind) {
    case RuntimeMessageKind::kAnnounce:
    case RuntimeMessageKind::kTrigger:
      tracer->Instant(obs::SpanCategory::kMessage,
                      StrCat(MessageKindName(msg.kind), " ",
                             alphabet.LiteralName(msg.literal)),
                      now, src_site, from,
                      {{"to", alphabet.Name(target)}});
      return;
    case RuntimeMessageKind::kRequestPromise:
      // Request → grant window: opened here, closed when the owner of the
      // needed literal sends back the matching kPromise.
      tracer->BeginAsync(
          obs::SpanCategory::kPromise,
          StrCat("promise_request ", alphabet.LiteralName(msg.literal),
                 " for ", alphabet.LiteralName(msg.requester)),
          StrCat("preq:", alphabet.LiteralName(msg.literal), ":", from), now,
          src_site, from, {{"to", alphabet.Name(target)}});
      return;
    case RuntimeMessageKind::kPromise:
      tracer->EndAsync(
          StrCat("preq:", alphabet.LiteralName(msg.literal), ":", target),
          now, src_site, from);
      tracer->Instant(obs::SpanCategory::kPromise,
                      StrCat("promise ", alphabet.LiteralName(msg.literal)),
                      now, src_site, from,
                      {{"to", alphabet.Name(target)}});
      return;
  }
}

void GuardScheduler::TraceDeliver(const RuntimeMessage& msg,
                                  const EventActor* to) {
  obs::TraceRecorder* tracer = obs_.tracer();
  if (tracer == nullptr || msg.span_id == 0) return;
  SimTime now = sim_->now();
  tracer->Instant(obs::SpanCategory::kMessage,
                  StrCat("assimilate ",
                         ctx_->alphabet()->LiteralName(msg.literal)),
                  now, to->site(), to->symbol(),
                  {{"kind", MessageKindName(msg.kind)},
                   {"trace", StrCat(msg.trace_id)}});
  tracer->FlowEnd(obs::SpanCategory::kMessage, MessageKindName(msg.kind),
                  msg.span_id, now, to->site(), to->symbol());
}

void GuardScheduler::Broadcast(SymbolId from, const RuntimeMessage& msg) {
  int src_site = FindActor(from)->site();
  for (SymbolId target : SubscribersOf(from)) {
    Send(from, src_site, FindActor(target), msg);
  }
}

void GuardScheduler::SendTo(SymbolId from, SymbolId target,
                            const RuntimeMessage& msg) {
  EventActor* to = FindActor(target);
  if (to == nullptr) return;
  Send(from, FindActor(from)->site(), to, msg);
}

void GuardScheduler::Send(SymbolId from, int src_site, EventActor* to,
                          const RuntimeMessage& msg) {
  CountMessage(msg.kind);
  if (obs_.tracer() == nullptr) {
    Deliver(src_site, to->site(), [to, msg] { to->Receive(msg); });
    return;
  }
  // Stamp causal context per copy: each copy of a broadcast gets its own
  // span id, so every delivery draws its own flow arrow.
  RuntimeMessage traced = msg;
  traced.trace_id = options_.trace_id;
  traced.span_id = ++next_span_id_;
  TraceSend(from, to->symbol(), traced);
  Deliver(src_site, to->site(), [this, to, traced] {
    TraceDeliver(traced, to);
    to->Receive(traced);
  });
}

void GuardScheduler::Deliver(int src_site, int dst_site,
                             Simulator::Callback fn) {
  if (transport_ != nullptr) {
    transport_->Send(src_site, dst_site, kMessageBytes, std::move(fn));
  } else {
    sim_->Schedule(0, std::move(fn));
  }
}

OccurrenceStamp GuardScheduler::NextStamp() {
  return OccurrenceStamp{sim_->now(), next_seq_++};
}

void GuardScheduler::RecordOccurrence(EventLiteral literal,
                                      OccurrenceStamp stamp) {
  // Write-ahead: the log entry lands before any announcement is sent, so a
  // crash never loses an occurrence other actors may have observed.
  if (options_.durable_log != nullptr) {
    options_.durable_log->Append(EventLog::Record{stamp, literal});
  }
  obs_.CountOccurrence(literal, FindActor(literal.symbol())->site(),
                       stamp.seq);
  history_.push_back(literal);
  for (const auto& listener : listeners_) listener(literal);
}

Status GuardScheduler::Recover(const EventLog& log) {
  if (!history_.empty()) {
    return Status::FailedPrecondition(
        "Recover must run on a fresh scheduler");
  }
  obs_.metrics()->counter("sched.recovered_records")
      ->Increment(log.records().size());
  if (obs_.tracer() != nullptr) {
    obs_.tracer()->Complete(obs::SpanCategory::kRecovery, "recovery replay",
                      sim_->now(), 0, 0, 0,
                      {{"records", StrCat(log.records().size())},
                       {"checkpointed",
                        log.checkpoint() != nullptr ? "1" : "0"}});
  }
  // Pass 0: when the log is compacted behind a checkpoint, its payload
  // stands in for replaying the covered prefix — restore the decided
  // history, the per-actor heard-residual baselines, the stamp sequence,
  // and the transport watermarks directly.
  if (log.checkpoint() != nullptr) {
    auto parsed = ParseCheckpoint(ctx_->guards(), *ctx_->alphabet(),
                                  log.checkpoint()->payload);
    if (!parsed.ok()) return parsed.status();
    const CheckpointState& state = parsed.value();
    obs_.metrics()->counter("sched.recovered_from_checkpoint")->Increment();
    // Every covered record decided one symbol, so the section's count is
    // the restored history's length (and the log's record total stays
    // small).
    if (state.history.size() != log.checkpoint()->covered) {
      return Status::InvalidArgument(
          StrCat("checkpoint covers ", log.checkpoint()->covered,
                 " records but restores ", state.history.size()));
    }
    for (EventLiteral literal : state.history) {
      EventActor* actor = FindActor(literal.symbol());
      if (actor == nullptr) {
        return Status::InvalidArgument(
            "checkpoint mentions an event outside this workflow");
      }
      if (actor->decided()) {
        return Status::InvalidArgument(
            StrCat("checkpoint decides symbol '",
                   ctx_->alphabet()->Name(literal.symbol()), "' twice"));
      }
      actor->RestoreOccurrence(literal);
      history_.push_back(literal);
    }
    for (const ActorCheckpoint& baseline : state.actors) {
      EventActor* actor = FindActor(baseline.symbol);
      if (actor == nullptr) {
        return Status::InvalidArgument(
            "checkpoint names an actor outside this workflow");
      }
      if (actor->decided()) {
        return Status::InvalidArgument(
            StrCat("checkpoint carries a baseline for decided symbol '",
                   ctx_->alphabet()->Name(baseline.symbol), "'"));
      }
      actor->RestoreBaseline(baseline.positive, baseline.negative);
    }
    if (state.next_seq > next_seq_) next_seq_ = state.next_seq;
    if (transport_ != nullptr) transport_->RestoreChannels(state.channels);
  }
  // Pass 1: restore decisions and the history, and advance the stamp
  // sequence past everything logged.
  for (const EventLog::Record& record : log.records()) {
    EventActor* actor = FindActor(record.literal.symbol());
    if (actor == nullptr) {
      return Status::InvalidArgument(
          "log mentions an event outside this workflow");
    }
    if (actor->decided()) {
      // Corrupt or foreign input: a symbol decides at most once, so a
      // well-formed log (or checkpoint + suffix) never repeats one. A
      // Status, not a CHECK — log bytes are untrusted.
      return Status::InvalidArgument(
          StrCat("log decides symbol '",
                 ctx_->alphabet()->Name(record.literal.symbol()),
                 "' twice"));
    }
    actor->RestoreOccurrence(record.literal);
    history_.push_back(record.literal);
    if (record.stamp.seq >= next_seq_) {
      if (record.stamp.seq == std::numeric_limits<uint64_t>::max()) {
        return Status::InvalidArgument("log stamp sequence is exhausted");
      }
      next_seq_ = record.stamp.seq + 1;
    }
  }
  // Untrusted stamps again: the stamps issued from here on must sort after
  // the last logged one (the instance clock resumes at its time), and every
  // undecided symbol may still draw one. Only a checkpoint can break the
  // first: its payload's sequence need not pass its section's last stamp.
  if (log.total_records() > 0 && next_seq_ <= log.last_stamp().seq) {
    return Status::InvalidArgument(
        "checkpoint stamp sequence does not pass its last covered stamp");
  }
  if (Undecided().size() > std::numeric_limits<uint64_t>::max() - next_seq_) {
    return Status::InvalidArgument("log stamp sequence is exhausted");
  }
  // Pass 2: replay suffix announcements synchronously, in stamp order, so
  // every actor's knowledge (and hence reduced guards) matches the
  // pre-crash state. Actors restored from checkpoint baselines fold the
  // suffix on top of them — residuation is a left fold, so baseline +
  // suffix equals folding the full history. No parked attempts exist yet,
  // so nothing can fire.
  for (const EventLog::Record& record : log.records()) {
    RuntimeMessage announce{RuntimeMessageKind::kAnnounce, record.literal,
                            record.stamp, EventLiteral(), {}, nullptr, {}};
    for (SymbolId target : SubscribersOf(record.literal.symbol())) {
      FindActor(target)->Receive(announce);
    }
  }
  return Status::OK();
}

CheckpointState GuardScheduler::Snapshot() const {
  // Quiescence is the correctness boundary, not a convenience: an
  // announcement still in flight would be inside neither the snapshot's
  // baselines nor the post-checkpoint log suffix, and nobody re-announces
  // covered occurrences after recovery.
  CDES_CHECK(sim_->pending() == 0)
      << "checkpoints require a quiescent instance";
  CheckpointState state;
  state.next_seq = next_seq_;
  state.clock = sim_->now();
  state.history = history_;
  for (const ActorSlot& slot : actors_) {
    if (slot.actor == nullptr || slot.actor->decided()) continue;
    SymbolId symbol = slot.actor->symbol();
    EventLiteral positive = EventLiteral::Positive(symbol);
    EventLiteral negative = EventLiteral::Complement(symbol);
    const Guard* heard_positive = slot.actor->HeardResidual(positive);
    const Guard* heard_negative = slot.actor->HeardResidual(negative);
    // Hash-consing makes "has this actor's knowledge moved its guards?" a
    // pointer comparison; untouched actors are omitted and recovery leaves
    // them on the compiled table.
    if (slot.compiled->GuardFor(positive) == heard_positive &&
        slot.compiled->GuardFor(negative) == heard_negative) {
      continue;
    }
    state.actors.push_back({symbol, heard_positive, heard_negative});
  }
  if (transport_ != nullptr) state.channels = transport_->SnapshotChannels();
  return state;
}

bool GuardScheduler::MayTrigger(EventLiteral literal) const {
  if (literal.complemented()) return false;
  const EventActor* actor = FindActor(literal.symbol());
  return actor != nullptr && actor->triggerable() && !actor->decided();
}

}  // namespace cdes
