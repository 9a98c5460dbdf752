#ifndef CDES_SCHED_SCHEDULER_OBS_H_
#define CDES_SCHED_SCHEDULER_OBS_H_

#include <map>
#include <memory>
#include <string>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/obs.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "spec/ast.h"

namespace cdes {

/// The event-lifecycle metrics and trace of a scheduler, one implementation
/// for all three: the distributed scheduler's event actors and the two
/// centralized baselines call it where they decide an attempt. Metric names
/// are the "sched.*" namespace of docs/OBSERVABILITY.md, so runs compare
/// metric for metric when each scheduler reports into its own registry.
///
/// The counters are always recorded; without an installed registry a
/// privately owned one backs them. The two histograms exist when a registry
/// or a tracer is installed. A null tracer costs one branch per site.
class SchedulerObs {
 public:
  void Init(obs::MetricsRegistry* metrics, obs::TraceRecorder* tracer,
            const Alphabet* alphabet, const Simulator* sim) {
    if (metrics != nullptr) {
      metrics_ = metrics;
    } else {
      owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
      metrics_ = owned_metrics_.get();
    }
    tracer_ = tracer;
    alphabet_ = alphabet;
    sim_ = sim;
    attempts_ = metrics_->counter("sched.attempts");
    occurrences_ = metrics_->counter("sched.occurrences");
    violations_ = metrics_->counter("sched.violations");
    accepted_ = metrics_->counter("sched.decisions.accepted");
    rejected_ = metrics_->counter("sched.decisions.rejected");
    parks_ = metrics_->counter("sched.parks");
    if (metrics != nullptr || tracer != nullptr) {
      decision_latency_ = metrics_->histogram("sched.decision_latency_us");
      parked_depth_ = metrics_->histogram("sched.parked_depth");
    }
  }

  /// Names the trace's center process, one lane per event on it, and the
  /// agent sites: the centralized baselines decide every attempt there.
  void NameCenter(int center_site, const std::string& scheduler_name,
                  const std::map<SymbolId, int>& sites) {
    if (tracer_ == nullptr) return;
    tracer_->NameProcess(center_site, StrCat("center ", scheduler_name,
                                             " (site ", center_site, ")"));
    for (const auto& [symbol, site] : sites) {
      if (site != center_site) {
        tracer_->NameProcess(site, StrCat("site ", site));
      }
      tracer_->NameLane(center_site, symbol,
                        StrCat("event ", alphabet_->Name(symbol)));
    }
  }

  obs::MetricsRegistry* metrics() const { return metrics_; }
  obs::TraceRecorder* tracer() const { return tracer_; }
  SimTime now() const { return sim_->now(); }

  /// One Attempt() call, traced at the attempting agent's site.
  void CountAttempt(EventLiteral literal, int site) {
    attempts_->Increment();
    if (tracer_ != nullptr) {
      tracer_->Instant(obs::SpanCategory::kLifecycle,
                       StrCat("attempt ", alphabet_->LiteralName(literal)),
                       sim_->now(), site, literal.symbol());
    }
  }

  /// An attempt parks at `site`, where `depth` entries then wait: counts
  /// the park, observes the depth and opens the entry's "parked <literal>"
  /// window. Returns the window for Decided to close (0 without a tracer).
  uint64_t Park(EventLiteral literal, size_t depth, int site) {
    parks_->Increment();
    if (parked_depth_ != nullptr) parked_depth_->Observe(depth);
    if (tracer_ == nullptr) return 0;
    uint64_t window = ++windows_;
    tracer_->BeginAsync(obs::SpanCategory::kLifecycle,
                        StrCat("parked ", alphabet_->LiteralName(literal)),
                        WindowKey(window), sim_->now(), site,
                        literal.symbol());
    return window;
  }

  /// One final answer (accepted or rejected) given at `site`: counts the
  /// decision, closes `window` when the answer resolves a parked entry
  /// (0 for an attempt answered at once) and traces
  /// "enabled"/"rejected <literal>".
  void Decided(EventLiteral literal, Decision d, int site,
               uint64_t window = 0) {
    CDES_DCHECK(d != Decision::kParked);
    (d == Decision::kAccepted ? accepted_ : rejected_)->Increment();
    if (tracer_ == nullptr) return;
    SimTime now = sim_->now();
    if (window != 0) {
      tracer_->EndAsync(WindowKey(window), now, site, literal.symbol(),
                        {{"outcome", DecisionToString(d)}});
    }
    tracer_->Instant(obs::SpanCategory::kLifecycle,
                     StrCat(d == Decision::kAccepted ? "enabled "
                                                     : "rejected ",
                            alphabet_->LiteralName(literal)),
                     now, site, literal.symbol());
  }

  /// The latency of one final answer: from `since` (when the attempt was
  /// sent, or when its entry parked) to now.
  void ObserveLatency(SimTime since) {
    if (decision_latency_ != nullptr) {
      decision_latency_->Observe(sim_->now() - since);
    }
  }

  /// The occurrence numbered `seq`, traced at `site`.
  void CountOccurrence(EventLiteral literal, int site, uint64_t seq) {
    occurrences_->Increment();
    if (tracer_ != nullptr) {
      tracer_->Instant(obs::SpanCategory::kLifecycle,
                       StrCat("occur ", alphabet_->LiteralName(literal)),
                       sim_->now(), site, literal.symbol(),
                       {{"seq", StrCat(seq)}});
    }
  }

  void CountViolation() { violations_->Increment(); }

 private:
  static std::string WindowKey(uint64_t window) {
    return StrCat("park:", window);
  }

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceRecorder* tracer_ = nullptr;
  const Alphabet* alphabet_ = nullptr;
  const Simulator* sim_ = nullptr;
  obs::Counter* attempts_ = nullptr;
  obs::Counter* occurrences_ = nullptr;
  obs::Counter* violations_ = nullptr;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* parks_ = nullptr;
  obs::Histogram* decision_latency_ = nullptr;
  obs::Histogram* parked_depth_ = nullptr;
  /// Parked windows opened so far (trace keys).
  uint64_t windows_ = 0;
};

}  // namespace cdes

#endif  // CDES_SCHED_SCHEDULER_OBS_H_
