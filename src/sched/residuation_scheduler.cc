#include "sched/residuation_scheduler.h"

#include <deque>
#include <set>

namespace cdes {

ResiduationScheduler::ResiduationScheduler(WorkflowContext* ctx,
                                           const ParsedWorkflow& workflow,
                                           Network* network, int center_site,
                                           size_t message_bytes,
                                           obs::MetricsRegistry* metrics,
                                           obs::TraceRecorder* tracer)
    : ctx_(ctx), network_(network), center_site_(center_site),
      message_bytes_(message_bytes), dependencies_(workflow.spec.dependencies()) {
  residuals_.reserve(dependencies_.size());
  for (const Dependency& dep : dependencies_) {
    residuals_.push_back(ctx_->residuator()->NormalForm(dep.expr));
  }
  for (const EventDecl& decl : workflow.events) {
    attrs_[decl.symbol] = decl.attrs;
    const AgentDecl* agent = workflow.FindAgent(decl.agent);
    sites_[decl.symbol] = agent != nullptr ? agent->site : 0;
  }
  obs_.Init(metrics, tracer, ctx_->alphabet(), network_->sim());
  obs_.NameCenter(center_site_, name(), sites_);
}

int ResiduationScheduler::SiteOf(SymbolId symbol) const {
  auto it = sites_.find(symbol);
  return it == sites_.end() ? 0 : it->second;
}

void ResiduationScheduler::Attempt(EventLiteral literal, AttemptCallback done) {
  int agent_site = SiteOf(literal.symbol());
  obs_.CountAttempt(literal, agent_site);
  // Attempt message travels from the agent's site to the center.
  network_->Send(agent_site, center_site_, message_bytes_,
                 [this, attempt = Parked{literal, std::move(done), agent_site,
                                         obs_.now()}]() mutable {
                   HandleAttempt(std::move(attempt));
                 });
}

void ResiduationScheduler::Reply(const Parked& attempt, Decision decision) {
  bool is_final = decision != Decision::kParked;
  if (is_final) {
    obs_.Decided(attempt.literal, decision, center_site_, attempt.window);
  }
  if (!attempt.done) return;
  network_->Send(center_site_, attempt.agent_site, message_bytes_,
                 [this, done = attempt.done, decision, is_final,
                  sent = attempt.sent] {
                   if (is_final) obs_.ObserveLatency(sent);
                   done(decision);
                 });
}

void ResiduationScheduler::HandleAttempt(Parked attempt) {
  EventLiteral literal = attempt.literal;
  auto decided = decided_.find(literal.symbol());
  if (decided != decided_.end()) {
    Reply(attempt, decided->second == literal ? Decision::kAccepted
                                              : Decision::kRejected);
    return;
  }
  if (CanAcceptNow(literal)) {
    ApplyOccurrence(literal);
    Reply(attempt, Decision::kAccepted);
    Reevaluate();
    return;
  }
  if (!CanEverAccept(literal)) {
    EventAttributes attrs = attrs_.count(literal.symbol())
                                ? attrs_[literal.symbol()]
                                : EventAttributes{};
    if (!literal.complemented() && !attrs.rejectable) {
      // Forced admission of a nonrejectable event (abort-like).
      ++violations_;
      obs_.CountViolation();
      ApplyOccurrence(literal);
      Reply(attempt, Decision::kAccepted);
      Reevaluate();
    } else {
      Reply(attempt, Decision::kRejected);
    }
    return;
  }
  attempt.window = obs_.Park(literal, parked_.size() + 1, center_site_);
  Reply(attempt, Decision::kParked);
  parked_.push_back(std::move(attempt));
}

bool ResiduationScheduler::Satisfiable(const Expr* e) {
  auto it = sat_cache_.find(e);
  if (it != sat_cache_.end()) return it->second;
  bool sat = IsSatisfiable(ctx_->residuator(), e);
  sat_cache_.emplace(e, sat);
  return sat;
}

bool ResiduationScheduler::CanAcceptNow(EventLiteral literal) {
  for (const Expr* residual : residuals_) {
    if (!Satisfiable(ctx_->residuator()->Residuate(residual, literal))) {
      return false;
    }
  }
  return true;
}

bool ResiduationScheduler::CanEverAccept(EventLiteral literal) {
  // ℓ is viable for a dependency if some residual reachable via events of
  // *other* symbols admits ℓ without losing satisfiability. Per-dependency
  // reachability on the residual DAG (residuals drop consumed symbols, so
  // this terminates).
  for (const Expr* residual : residuals_) {
    std::set<const Expr*> seen;
    std::deque<const Expr*> frontier = {residual};
    bool viable = false;
    while (!viable && !frontier.empty()) {
      const Expr* state = frontier.front();
      frontier.pop_front();
      if (!seen.insert(state).second) continue;
      if (Satisfiable(ctx_->residuator()->Residuate(state, literal))) {
        viable = true;
        break;
      }
      for (EventLiteral step : Gamma(state)) {
        if (step.symbol() == literal.symbol()) continue;
        if (decided_.count(step.symbol())) continue;
        frontier.push_back(ctx_->residuator()->Residuate(state, step));
      }
    }
    if (!viable) return false;
  }
  return true;
}

void ResiduationScheduler::ApplyOccurrence(EventLiteral literal) {
  obs_.CountOccurrence(literal, center_site_, history_.size());
  decided_[literal.symbol()] = literal;
  history_.push_back(literal);
  for (const Expr*& residual : residuals_) {
    residual = ctx_->residuator()->Residuate(residual, literal);
  }
  for (const auto& listener : listeners_) listener(literal);
}

void ResiduationScheduler::Reevaluate() {
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < parked_.size(); ++i) {
      EventLiteral literal = parked_[i].literal;
      auto decided = decided_.find(literal.symbol());
      if (decided != decided_.end()) {
        Parked p = std::move(parked_[i]);
        parked_.erase(parked_.begin() + i);
        Reply(p, decided->second == literal ? Decision::kAccepted
                                            : Decision::kRejected);
        changed = true;
        break;
      }
      if (CanAcceptNow(literal)) {
        Parked p = std::move(parked_[i]);
        parked_.erase(parked_.begin() + i);
        ApplyOccurrence(literal);
        Reply(p, Decision::kAccepted);
        changed = true;
        break;
      }
      if (!CanEverAccept(literal)) {
        Parked p = std::move(parked_[i]);
        parked_.erase(parked_.begin() + i);
        Reply(p, Decision::kRejected);
        changed = true;
        break;
      }
    }
  }
}

}  // namespace cdes
