#include "sched/automata_scheduler.h"

#include <deque>
#include <set>

#include "algebra/residuation.h"

namespace cdes {

size_t DependencyAutomaton::Next(size_t state, EventLiteral literal) const {
  auto it = transitions.find({state, literal});
  // Residuation rule 6: events outside the residual's alphabet leave the
  // state unchanged; the graph stores only in-alphabet edges.
  return it == transitions.end() ? state : it->second;
}

DependencyAutomaton BuildDependencyAutomaton(Residuator* residuator,
                                             const Expr* dep) {
  DependencyAutomaton out;
  ResidualGraph graph = BuildResidualGraph(residuator, dep);
  out.states = graph.states;
  out.transitions.clear();
  for (const auto& [key, to] : graph.edges) {
    out.transitions[{key.first, key.second}] = to;
  }
  out.symbols = MentionedSymbols(residuator->NormalForm(dep));
  // A state is satisfiable when ⊤ is reachable (including being ⊤);
  // residuation strictly consumes symbols, so iterating to fixpoint over
  // the (acyclic) edge set terminates quickly.
  out.satisfiable.assign(out.states.size(), false);
  for (size_t i = 0; i < out.states.size(); ++i) {
    out.satisfiable[i] = out.states[i]->IsTop();
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [key, to] : graph.edges) {
      if (out.satisfiable[to] && !out.satisfiable[key.first]) {
        out.satisfiable[key.first] = true;
        changed = true;
      }
    }
  }
  return out;
}

AutomataScheduler::AutomataScheduler(WorkflowContext* ctx,
                                     const ParsedWorkflow& workflow,
                                     Network* network, int center_site,
                                     size_t message_bytes,
                                     obs::MetricsRegistry* metrics,
                                     obs::TraceRecorder* tracer)
    : ctx_(ctx), network_(network), center_site_(center_site),
      message_bytes_(message_bytes) {
  for (const Dependency& dep : workflow.spec.dependencies()) {
    automata_.push_back(BuildDependencyAutomaton(ctx->residuator(), dep.expr));
    current_.push_back(0);
  }
  for (const EventDecl& decl : workflow.events) {
    const AgentDecl* agent = workflow.FindAgent(decl.agent);
    sites_[decl.symbol] = agent != nullptr ? agent->site : 0;
  }
  obs_.Init(metrics, tracer, ctx_->alphabet(), network_->sim());
  obs_.NameCenter(center_site_, name(), sites_);
}

size_t AutomataScheduler::total_states() const {
  size_t n = 0;
  for (const DependencyAutomaton& a : automata_) n += a.states.size();
  return n;
}

size_t AutomataScheduler::total_transitions() const {
  size_t n = 0;
  for (const DependencyAutomaton& a : automata_) n += a.transitions.size();
  return n;
}

int AutomataScheduler::SiteOf(SymbolId symbol) const {
  auto it = sites_.find(symbol);
  return it == sites_.end() ? 0 : it->second;
}

void AutomataScheduler::Attempt(EventLiteral literal, AttemptCallback done) {
  int agent_site = SiteOf(literal.symbol());
  obs_.CountAttempt(literal, agent_site);
  network_->Send(agent_site, center_site_, message_bytes_,
                 [this, attempt = Parked{literal, std::move(done), agent_site,
                                         obs_.now()}]() mutable {
                   HandleAttempt(std::move(attempt));
                 });
}

void AutomataScheduler::Reply(const Parked& attempt, Decision decision) {
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

void AutomataScheduler::HandleAttempt(Parked attempt) {
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
    Reply(attempt, Decision::kRejected);
    return;
  }
  attempt.window = obs_.Park(literal, parked_.size() + 1, center_site_);
  Reply(attempt, Decision::kParked);
  parked_.push_back(std::move(attempt));
}

bool AutomataScheduler::CanAcceptNow(EventLiteral literal) const {
  for (size_t i = 0; i < automata_.size(); ++i) {
    size_t next = automata_[i].Next(current_[i], literal);
    if (!automata_[i].satisfiable[next]) return false;
  }
  return true;
}

bool AutomataScheduler::CanEverAccept(EventLiteral literal) const {
  for (size_t i = 0; i < automata_.size(); ++i) {
    const DependencyAutomaton& automaton = automata_[i];
    std::set<size_t> seen;
    std::deque<size_t> frontier = {current_[i]};
    bool viable = false;
    while (!viable && !frontier.empty()) {
      size_t state = frontier.front();
      frontier.pop_front();
      if (!seen.insert(state).second) continue;
      if (automaton.satisfiable[automaton.Next(state, literal)]) {
        viable = true;
        break;
      }
      for (const auto& [key, to] : automaton.transitions) {
        if (key.first != state) continue;
        if (key.second.symbol() == literal.symbol()) continue;
        if (decided_.count(key.second.symbol())) continue;
        frontier.push_back(to);
      }
    }
    if (!viable) return false;
  }
  return true;
}

void AutomataScheduler::ApplyOccurrence(EventLiteral literal) {
  obs_.CountOccurrence(literal, center_site_, history_.size());
  decided_[literal.symbol()] = literal;
  history_.push_back(literal);
  for (size_t i = 0; i < automata_.size(); ++i) {
    current_[i] = automata_[i].Next(current_[i], literal);
  }
  for (const auto& listener : listeners_) listener(literal);
}

void AutomataScheduler::Reevaluate() {
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
