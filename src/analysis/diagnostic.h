#ifndef CDES_ANALYSIS_DIAGNOSTIC_H_
#define CDES_ANALYSIS_DIAGNOSTIC_H_

#include <span>
#include <string>
#include <vector>

#include "common/source_location.h"

namespace cdes::analysis {

/// How bad a finding is. kError findings mean the spec cannot behave as
/// written (an event or dependency is dead, or the workflow wedges);
/// kWarning findings are almost certainly authoring mistakes that still
/// admit some computation; kNote findings are stylistic or informational.
enum class Severity { kNote, kWarning, kError };

/// Stable rule identifiers, one per analysis pass output. The numeric code
/// ("CL001") and the slug ("unsatisfiable-dep") are both part of the tool's
/// contract: CI greps for them and docs/ANALYSIS.md catalogues them.
enum class Rule {
  kParseError,          // CL000: the spec did not parse
  kUnsatisfiableDep,    // CL001: dependency ≡ 0 — no computation satisfies it
  kVacuousDep,          // CL002: dependency ≡ ⊤ — constrains nothing
  kDeadEvent,           // CL003: G(W, e) ≡ 0 — e can never be permitted
  kForcedEvent,         // CL004: G(W, ē) ≡ 0 — e can never be rejected
  kStaticDeadlock,      // CL005: mutual □-wait cycle among initial guards
  kWaitOnDead,          // CL006: initial guard must-waits on a dead literal
  kRedundantDep,        // CL007: dependency entailed by another
  kUndeclaredEvent,     // CL008: dependency mentions an undeclared symbol
  kUnassignedEvent,     // CL009: event declared without an owning agent
  kUnconstrainedEvent,  // CL010: event mentioned by no dependency
  // Reachability rules (the exhaustive model checker, analysis/model_checker.h;
  // codes jump to CL020 to leave room for further static passes).
  kReachableDeadlock,   // CL020: guard-legal run wedges before maximality
  kUnreachableEvent,    // CL021: no reachable state ever permits the event
  kUnexercisedDep,      // CL022: dependency satisfied only vacuously
  kGuardSpecMismatch,   // CL023: guards and dependencies disagree (Thm 6)
  kNegationRace,        // CL024: two enabled events' order violates a dep
};

/// "CL001" / "unsatisfiable-dep" / default severity for `rule`.
std::string_view RuleCode(Rule rule);
std::string_view RuleSlug(Rule rule);
Severity RuleSeverity(Rule rule);

std::string_view SeverityName(Severity severity);

/// One step of a counterexample trace attached to a reachability finding:
/// the literal that fired, the dependency that owns it (the first
/// dependency mentioning its symbol, in spec order), and that dependency's
/// source location — so a trace renders as runnable, source-anchored steps.
struct TraceStep {
  std::string literal;
  std::string dependency;
  SourceLocation loc;
};

/// One structured finding of the static analyzer (or the parser, wrapped).
struct Diagnostic {
  Severity severity = Severity::kWarning;
  Rule rule = Rule::kParseError;
  std::string message;
  /// Position of the offending declaration/dependency in the spec source;
  /// unknown for programmatically built workflows.
  SourceLocation loc;
  /// Spec file the workflow came from, when known (filled by the CLI).
  std::string file;
  /// Counterexample trace for reachability findings (CL020/CL023/CL024), in
  /// firing order; empty for the static rules.
  std::vector<TraceStep> trace;
};

/// Builds a diagnostic with the rule's default severity.
Diagnostic MakeDiagnostic(Rule rule, std::string message,
                          SourceLocation loc = {});

/// "file:line:col: severity: message [CL001 unsatisfiable-dep]".
std::string FormatDiagnostic(const Diagnostic& d);

/// Human-readable rendering, one diagnostic per line; counterexample
/// traces follow as indented steps ("  #1 s_init — dep 'boot' (12:3)").
std::string FormatDiagnostics(std::span<const Diagnostic> diagnostics);

/// JSON array of objects with file/line/column/severity/code/rule/message
/// fields (machine-readable `cdes-lint --json` output).
std::string DiagnosticsToJson(std::span<const Diagnostic> diagnostics);

/// True when any diagnostic reaches `at_least` (default: any error).
bool HasFindings(std::span<const Diagnostic> diagnostics,
                 Severity at_least = Severity::kError);

}  // namespace cdes::analysis

#endif  // CDES_ANALYSIS_DIAGNOSTIC_H_
