#ifndef CDES_SCHED_RESIDUATION_SCHEDULER_H_
#define CDES_SCHED_RESIDUATION_SCHEDULER_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "guards/workflow.h"
#include "sched/scheduler_obs.h"
#include "sched/scheduler.h"
#include "sim/network.h"
#include "spec/ast.h"

namespace cdes {

/// The centralized, dependency-centric scheduler (§3.3-3.4, Figure 2) —
/// the design the paper's distributed approach replaces. All dependencies
/// are represented as residual expressions at one site. Every attempt is a
/// round trip: agent site → center (attempt), center → agent site
/// (decision). Scheduling policy, per the Figure 2 state machine:
///
///   accept ℓ  iff every dependency's residual stays satisfiable after
///             residuating by ℓ (the trace can still be completed);
///   reject ℓ  iff ℓ can never become acceptable (no reachable residual,
///             via events of other symbols, admits ℓ) or ℓ̄ has occurred;
///   park   ℓ  otherwise, re-examined after every occurrence.
///
/// Note the semantic contrast with guards: this scheduler accepts f first
/// under D_< (committing to later reject e), while the guard scheduler
/// parks f until ē is guaranteed (Example 10). Both enforce every
/// dependency; they realize different subsets of the acceptable traces.
class ResiduationScheduler : public Scheduler {
 public:
  /// `metrics`/`tracer` (optional) install the observability layer: the
  /// "sched.*" lifecycle metrics and spans every scheduler records
  /// (SchedulerObs, docs/OBSERVABILITY.md). When neither is given, a
  /// private registry backs the counters.
  ResiduationScheduler(WorkflowContext* ctx, const ParsedWorkflow& workflow,
                       Network* network, int center_site = 0,
                       size_t message_bytes = 48,
                       obs::MetricsRegistry* metrics = nullptr,
                       obs::TraceRecorder* tracer = nullptr);

  void Attempt(EventLiteral literal, AttemptCallback done) override;
  const Trace& history() const override { return history_; }
  std::string name() const override { return "residuation-centralized"; }
  void AddOccurrenceListener(
      std::function<void(EventLiteral)> listener) override {
    listeners_.push_back(std::move(listener));
  }

  size_t parked_count() const { return parked_.size(); }
  /// Current residual of dependency `index` (Figure 2 state).
  const Expr* ResidualOf(size_t index) const { return residuals_[index]; }
  size_t violations() const { return violations_; }
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

  /// Runs at the center: decides or parks an arriving attempt.
  void HandleAttempt(Parked attempt);
  bool CanAcceptNow(EventLiteral literal);
  bool CanEverAccept(EventLiteral literal);
  bool Satisfiable(const Expr* e);
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
  std::vector<Dependency> dependencies_;
  std::vector<const Expr*> residuals_;
  std::map<SymbolId, int> sites_;
  std::map<SymbolId, EventAttributes> attrs_;
  std::map<SymbolId, EventLiteral> decided_;
  std::vector<Parked> parked_;
  std::unordered_map<const Expr*, bool> sat_cache_;
  Trace history_;
  std::vector<std::function<void(EventLiteral)>> listeners_;
  size_t violations_ = 0;
  SchedulerObs obs_;
};

}  // namespace cdes

#endif  // CDES_SCHED_RESIDUATION_SCHEDULER_H_
