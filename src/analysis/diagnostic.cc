#include "analysis/diagnostic.h"

#include "common/logging.h"
#include "common/strings.h"
#include "obs/json.h"

namespace cdes::analysis {

std::string_view RuleCode(Rule rule) {
  switch (rule) {
    case Rule::kParseError: return "CL000";
    case Rule::kUnsatisfiableDep: return "CL001";
    case Rule::kVacuousDep: return "CL002";
    case Rule::kDeadEvent: return "CL003";
    case Rule::kForcedEvent: return "CL004";
    case Rule::kStaticDeadlock: return "CL005";
    case Rule::kWaitOnDead: return "CL006";
    case Rule::kRedundantDep: return "CL007";
    case Rule::kUndeclaredEvent: return "CL008";
    case Rule::kUnassignedEvent: return "CL009";
    case Rule::kUnconstrainedEvent: return "CL010";
    case Rule::kReachableDeadlock: return "CL020";
    case Rule::kUnreachableEvent: return "CL021";
    case Rule::kUnexercisedDep: return "CL022";
    case Rule::kGuardSpecMismatch: return "CL023";
    case Rule::kNegationRace: return "CL024";
  }
  CDES_CHECK(false);
  return "";
}

std::string_view RuleSlug(Rule rule) {
  switch (rule) {
    case Rule::kParseError: return "parse-error";
    case Rule::kUnsatisfiableDep: return "unsatisfiable-dep";
    case Rule::kVacuousDep: return "vacuous-dep";
    case Rule::kDeadEvent: return "dead-event";
    case Rule::kForcedEvent: return "forced-event";
    case Rule::kStaticDeadlock: return "static-deadlock";
    case Rule::kWaitOnDead: return "wait-on-dead";
    case Rule::kRedundantDep: return "redundant-dep";
    case Rule::kUndeclaredEvent: return "undeclared-event";
    case Rule::kUnassignedEvent: return "unassigned-event";
    case Rule::kUnconstrainedEvent: return "unconstrained-event";
    case Rule::kReachableDeadlock: return "reachable-deadlock";
    case Rule::kUnreachableEvent: return "unreachable-event";
    case Rule::kUnexercisedDep: return "unexercised-dep";
    case Rule::kGuardSpecMismatch: return "guard-spec-mismatch";
    case Rule::kNegationRace: return "negation-race";
  }
  CDES_CHECK(false);
  return "";
}

Severity RuleSeverity(Rule rule) {
  switch (rule) {
    case Rule::kParseError:
    case Rule::kUnsatisfiableDep:
    case Rule::kDeadEvent:
    case Rule::kStaticDeadlock:
    case Rule::kWaitOnDead:
    case Rule::kUndeclaredEvent:
    case Rule::kReachableDeadlock:
    case Rule::kUnreachableEvent:
    case Rule::kGuardSpecMismatch:
    case Rule::kNegationRace:
      return Severity::kError;
    case Rule::kVacuousDep:
    case Rule::kForcedEvent:
    case Rule::kRedundantDep:
    case Rule::kUnassignedEvent:
    case Rule::kUnexercisedDep:
      return Severity::kWarning;
    case Rule::kUnconstrainedEvent:
      return Severity::kNote;
  }
  CDES_CHECK(false);
  return Severity::kError;
}

std::string_view SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  CDES_CHECK(false);
  return "";
}

Diagnostic MakeDiagnostic(Rule rule, std::string message, SourceLocation loc) {
  Diagnostic d;
  d.severity = RuleSeverity(rule);
  d.rule = rule;
  d.message = std::move(message);
  d.loc = loc;
  return d;
}

std::string FormatDiagnostic(const Diagnostic& d) {
  std::string out;
  if (!d.file.empty()) out += StrCat(d.file, ":");
  if (d.loc.known()) out += StrCat(d.loc.ToString(), ":");
  if (!out.empty()) out += " ";
  out += StrCat(SeverityName(d.severity), ": ", d.message, " [",
                RuleCode(d.rule), " ", RuleSlug(d.rule), "]");
  return out;
}

std::string FormatDiagnostics(std::span<const Diagnostic> diagnostics) {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += FormatDiagnostic(d);
    out += "\n";
    for (size_t i = 0; i < d.trace.size(); ++i) {
      const TraceStep& step = d.trace[i];
      out += StrCat("  #", i + 1, " ", step.literal);
      if (!step.dependency.empty()) {
        out += StrCat(" — dep '", step.dependency, "' (", step.loc.ToString(),
                      ")");
      }
      out += "\n";
    }
  }
  return out;
}

std::string DiagnosticsToJson(std::span<const Diagnostic> diagnostics) {
  std::string out = "[";
  bool first = true;
  for (const Diagnostic& d : diagnostics) {
    if (!first) out += ",";
    first = false;
    out += StrCat("\n  {\"file\": \"", obs::JsonEscape(d.file),
                  "\", \"line\": ", d.loc.line, ", \"column\": ", d.loc.column,
                  ", \"severity\": \"", SeverityName(d.severity),
                  "\", \"code\": \"", RuleCode(d.rule), "\", \"rule\": \"",
                  RuleSlug(d.rule), "\", \"message\": \"",
                  obs::JsonEscape(d.message), "\"");
    if (!d.trace.empty()) {
      out += ", \"trace\": [";
      for (size_t i = 0; i < d.trace.size(); ++i) {
        const TraceStep& step = d.trace[i];
        out += StrCat(i == 0 ? "" : ", ", "{\"literal\": \"",
                      obs::JsonEscape(step.literal), "\", \"dependency\": \"",
                      obs::JsonEscape(step.dependency),
                      "\", \"line\": ", step.loc.line,
                      ", \"column\": ", step.loc.column, "}");
      }
      out += "]";
    }
    out += "}";
  }
  out += "\n]\n";
  return out;
}

bool HasFindings(std::span<const Diagnostic> diagnostics, Severity at_least) {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity >= at_least) return true;
  }
  return false;
}

}  // namespace cdes::analysis
