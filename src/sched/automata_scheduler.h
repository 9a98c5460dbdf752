#ifndef CDES_SCHED_AUTOMATA_SCHEDULER_H_
#define CDES_SCHED_AUTOMATA_SCHEDULER_H_

#include <map>
#include <string>
#include <vector>

#include "guards/workflow.h"
#include "sched/scheduler_obs.h"
#include "sched/scheduler.h"
#include "sim/network.h"
#include "spec/ast.h"

namespace cdes {

/// A per-dependency finite automaton, precompiled from the reachable
/// residuals (the approach of Attie, Singh, Sheth & Rusinkiewicz [2],
/// discussed in the paper's §6: it "avoids generating product automata,
/// but the individual automata themselves can be quite large").
struct DependencyAutomaton {
  /// Expressions labelling each state (state 0 is initial).
  std::vector<const Expr*> states;
  /// transition[state][literal index] → next state (dense by literal).
  std::map<std::pair<size_t, EventLiteral>, size_t> transitions;
  /// Per state: can ⊤ still be reached (the run can complete correctly)?
  std::vector<bool> satisfiable;
  /// Symbols this dependency mentions.
  std::set<SymbolId> symbols;

  size_t Next(size_t state, EventLiteral literal) const;
};

/// Compiles `dep` to its automaton.
DependencyAutomaton BuildDependencyAutomaton(Residuator* residuator,
                                             const Expr* dep);

/// The centralized automata-driven baseline [2]. Decision policy is
/// identical to ResiduationScheduler (accept iff every automaton stays in
/// a satisfiable state), but all symbolic work happens at build time:
/// runtime transitions are table lookups. The trade-off measured by
/// bench_automata_size: table size can grow combinatorially with the
/// dependency alphabet, while guard expressions stay succinct.
class AutomataScheduler : public Scheduler {
 public:
  /// `metrics`/`tracer` (optional) install the observability layer: the
  /// "sched.*" lifecycle metrics and spans every scheduler records
  /// (SchedulerObs, docs/OBSERVABILITY.md). When neither is given, a
  /// private registry backs the counters.
  AutomataScheduler(WorkflowContext* ctx, const ParsedWorkflow& workflow,
                    Network* network, int center_site = 0,
                    size_t message_bytes = 48,
                    obs::MetricsRegistry* metrics = nullptr,
                    obs::TraceRecorder* tracer = nullptr);

  void Attempt(EventLiteral literal, AttemptCallback done) override;
  const Trace& history() const override { return history_; }
  std::string name() const override { return "automata-centralized"; }
  void AddOccurrenceListener(
      std::function<void(EventLiteral)> listener) override {
    listeners_.push_back(std::move(listener));
  }

  size_t parked_count() const { return parked_.size(); }
  /// Total precompiled states across all dependency automata.
  size_t total_states() const;
  /// Total precompiled transitions.
  size_t total_transitions() const;
  const std::vector<DependencyAutomaton>& automata() const {
    return automata_;
  }
  /// The registry the "sched.*" metrics report into (installed or private).
  obs::MetricsRegistry* metrics() const { return obs_.metrics(); }
  obs::TraceRecorder* tracer() const { return obs_.tracer(); }

 private:
  /// An attempt at the center, arriving or parked.
  struct Parked {
    EventLiteral literal;
    AttemptCallback done;
    int agent_site;
    /// When the agent sent it; its decision latency runs from here.
    SimTime sent;
    /// Its parked trace window (SchedulerObs::Park), 0 while it is not
    /// parked.
    uint64_t window = 0;
  };

  void HandleAttempt(Parked attempt);
  bool CanAcceptNow(EventLiteral literal) const;
  bool CanEverAccept(EventLiteral literal) const;
  void ApplyOccurrence(EventLiteral literal);
  void Reevaluate();
  /// Records a final `decision` at the center and sends any decision back
  /// to the attempting agent; a final one's latency is recorded where it
  /// is delivered.
  void Reply(const Parked& attempt, Decision decision);
  int SiteOf(SymbolId symbol) const;

  WorkflowContext* ctx_;
  Network* network_;
  int center_site_;
  size_t message_bytes_;
  std::vector<DependencyAutomaton> automata_;
  std::vector<size_t> current_;  // current state per automaton
  std::map<SymbolId, int> sites_;
  std::map<SymbolId, EventLiteral> decided_;
  std::vector<Parked> parked_;
  Trace history_;
  std::vector<std::function<void(EventLiteral)>> listeners_;
  SchedulerObs obs_;
};

}  // namespace cdes

#endif  // CDES_SCHED_AUTOMATA_SCHEDULER_H_
