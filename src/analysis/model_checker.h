#ifndef CDES_ANALYSIS_MODEL_CHECKER_H_
#define CDES_ANALYSIS_MODEL_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/state_space.h"
#include "spec/ast.h"

namespace cdes::analysis {

/// Budgets and switches for the exhaustive reachability checker. The
/// exploration is exact (memoized canonical states + ample-set partial-order
/// reduction), but worst-case exponential in the symbol count, so every run
/// carries explicit caps; when any cap is hit the result is flagged
/// `bounded` and the absence-based rules (CL021/CL022) are withheld — a
/// bounded run can prove presence of a bad state, never absence.
/// It is the repo's one state-space explorer.
struct ModelCheckOptions {
  /// Stop after this many canonical states have been expanded.
  size_t max_states = 1 << 18;
  /// Stop after this much wall time.
  uint64_t max_millis = 10000;
  /// Refuse to explore workflows with more symbols than this (the state
  /// space is exponential; 64 is the hard representation limit).
  size_t max_symbols = 16;
  /// Ample-set partial-order reduction: at each state expand only one
  /// entanglement class of events (see StateSpace::EntangledClasses).
  /// CL020–CL022 and too-strict CL023 come out identical with it off, and
  /// too-liberal CL023 still fires whenever a generated computation
  /// violates a dependency (possibly at another witness) — only the
  /// explored state count changes. CL024, and a too-liberal witness no
  /// generated computation extends, are exhaustive only with it off (a
  /// reported finding is real either way).
  bool partial_order_reduction = true;
};

struct ModelCheckStats {
  /// Canonical states expanded (the POR-sensitive cost metric).
  size_t states_explored = 0;
  /// Alive transitions taken.
  size_t transitions = 0;
  /// Maximal states reached (every symbol decided).
  size_t maximal_states = 0;
  /// Maximal states the synthesized guards accept.
  size_t accepted_states = 0;
  /// Reachable guard-deadlock states (CL020).
  size_t deadlock_states = 0;
  /// True when a budget cut the exploration short (or it was skipped);
  /// the run proved whatever it reported, but not the absence of more.
  bool bounded = false;
  std::string bound_reason;
  uint64_t elapsed_micros = 0;
};

struct CheckResult {
  std::vector<Diagnostic> diagnostics;
  ModelCheckStats stats;
};

/// Compiles `workflow` (default options — the guards the runtime would
/// execute) and exhaustively enumerates every maximal computation the
/// synthesized guards admit, alongside the source dependencies' residuals:
///
///   CL020  reachable deadlock — a guard-legal, non-maximal state where no
///          literal's guard permits firing (shortest counterexample trace)
///   CL021  unreachable event — an event permitted at no explored state,
///          although its static guard is satisfiable (passes CL003)
///   CL022  dependency never exercised — satisfied only vacuously: no
///          accepted computation fires any event it mentions
///   CL023  spec⇔guards cross-validation (Theorem 6 checked exhaustively):
///          the guards admit, with no obligation pending (commitment ⊤), a
///          prefix that violates a dependency — reported at the earliest
///          such state, which for a generated computation may be maximal
///          — or a dependency-satisfying computation they do not generate
///   CL024  ¬-race — at a state with commitment ⊤, the runtime's
///          optimistic test (StateSpace::EnabledNow) enables two events a
///          and b that each violate nothing alone, and a then b violates a
///          dependency: concurrent sites could fire both (§4.3; §6's
///          "certain consensus requirements can be eliminated" holds only
///          without such a pair). An enabled event that violates a
///          dependency alone is CL023's earliest witness instead.
///
/// Counterexample traces are attached to the diagnostics (Diagnostic::trace)
/// with each step's owning dependency and source location.
CheckResult CheckWorkflow(WorkflowContext* ctx, const ParsedWorkflow& workflow,
                          const ModelCheckOptions& options = {});

/// Same, over an already-compiled workflow (the analyzer and the benchmarks
/// reuse their compilation). `workflow` supplies names and source locations
/// and must be the spec `compiled` came from.
CheckResult CheckCompiled(WorkflowContext* ctx, const ParsedWorkflow& workflow,
                          const CompiledWorkflow& compiled,
                          const ModelCheckOptions& options = {});

}  // namespace cdes::analysis

#endif  // CDES_ANALYSIS_MODEL_CHECKER_H_
