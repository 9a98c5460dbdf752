#ifndef CDES_ANALYSIS_ANALYZER_H_
#define CDES_ANALYSIS_ANALYZER_H_

#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/model_checker.h"
#include "spec/ast.h"

namespace cdes::analysis {

/// Knobs for the static analyzer. The state-space passes (vacuity, deep
/// guard-triviality, redundancy) are exact but exponential in the number of
/// symbols a single dependency (pair) mentions, so they are skipped beyond
/// fixed caps (kMaxStateSpaceSymbols for one dependency or guard, 8 joint
/// symbols for a redundancy pair); the always-on passes (satisfiability via
/// the residual graph, syntactic guard triviality, the wait graph, hygiene)
/// have no cap.
struct AnalyzeOptions {
  /// Pairwise dependency entailment (CL007) can be disabled wholesale.
  bool check_redundancy = true;
  /// Run the exhaustive reachability checker (CL020–CL024) after the
  /// static passes. Off by default: the exploration is exact but can be
  /// exponential in the symbol count, so callers opt in (cdes-lint
  /// --check, specc --verify). Skipped, like the other guard passes, when
  /// some dependency is unsatisfiable (CL001).
  bool check_reachability = false;
  /// Budgets for the reachability checker when enabled.
  ModelCheckOptions check;
};

/// Runs every static pass over a parsed workflow and returns structured
/// diagnostics ordered by source location.
///
/// The analysis is purely symbolic: dependency satisfiability uses the
/// reachable-residual graph (Figure 2), triviality uses the temporal
/// simplifier's exact state space, and deadlock detection inspects the
/// synthesized initial guards — the (exponential) state-space exploration
/// of the reachability checker runs only when `check_reachability` asks
/// for it, so the analyzer is safe to run on every compilation (§6: "the
/// compilation phase can detect these conditions").
///
/// Passes and their rules:
///   dependency triviality  CL001 (≡ 0, error), CL002 (≡ ⊤, warning)
///   guard triviality       CL003 (G(W,e) ≡ 0), CL004 (G(W,ē) ≡ 0)
///   static wait graph      CL005 (mutual □-wait cycle), CL006 (must-wait
///                          on a literal whose guard is 0)
///   redundancy             CL007 (dependency entailed by another)
///   symbol hygiene         CL008 (undeclared), CL009 (no agent),
///                          CL010 (unconstrained)
///   reachability (opt-in)  CL020–CL024 via the exhaustive model checker
///                          (analysis/model_checker.h), when
///                          `check_reachability` is set
///
/// When some dependency is unsatisfiable (CL001) the guard, wait-graph and
/// redundancy passes are suppressed: every guard of the workflow is 0 and
/// the derived findings would only repeat the root cause.
std::vector<Diagnostic> AnalyzeWorkflow(WorkflowContext* ctx,
                                        const ParsedWorkflow& workflow,
                                        const AnalyzeOptions& options = {});

/// True iff every maximal trace over Γ_{d1} ∪ Γ_{d2} satisfying `d1` also
/// satisfies `d2`, decided by a memoized search over pairs of residuals
/// (never by enumerating traces). Exposed for tests; AnalyzeWorkflow uses
/// it pairwise for CL007. Requires the joint symbol count to be ≤ 30.
bool DependencyEntails(WorkflowContext* ctx, const Expr* d1, const Expr* d2);

}  // namespace cdes::analysis

#endif  // CDES_ANALYSIS_ANALYZER_H_
