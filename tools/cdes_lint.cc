// cdes-lint — static analysis over workflow specs.
//
// Parses each spec file and runs the purely symbolic analyzer over every
// workflow it declares: dependency triviality (CL001/CL002), guard
// triviality (CL003/CL004), static wait-graph deadlock detection
// (CL005/CL006), redundancy (CL007), and symbol hygiene (CL008–CL010).
// Parse failures surface as CL000 with the same file:line:col location the
// parser reports. See docs/ANALYSIS.md for the rule catalogue.
//
// --check additionally runs the exhaustive reachability checker
// (CL020–CL024, analysis/model_checker.h) over every workflow, attaching
// counterexample traces to the findings. --check-budget=STATES[,MILLIS]
// bounds the exploration; a budget-exhausted run reports whatever it
// proved, flags the result "bounded" (summary line, and a "bounded": true
// field under "check" in --json output), withholds the absence-based rules
// (CL021/CL022), and does NOT fail the lint for being bounded.
//
// Exit status: 0 when no error-severity findings (warnings and notes do not
// fail the lint unless --werror), 1 when some file has errors, 2 on usage
// or I/O problems.
//
// Usage:  cdes-lint [--json] [--werror] [--no-redundancy]
//                   [--check] [--check-budget=STATES[,MILLIS]] file.wf...

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "common/file.h"
#include "common/strings.h"
#include "obs/json.h"
#include "spec/parser.h"

namespace {

using cdes::ParsedWorkflow;
using cdes::SourceLocation;
using cdes::WorkflowContext;
using cdes::analysis::AnalyzeOptions;
using cdes::analysis::Diagnostic;
using cdes::analysis::Rule;

// Recovers the SourceLocation a parse error carries in its "file:line:col: "
// message prefix, leaving the bare message. Best-effort: a message without
// the prefix is returned unchanged with an unknown location.
Diagnostic ParseErrorDiagnostic(const std::string& file,
                                std::string message) {
  if (!file.empty() && message.rfind(file + ":", 0) == 0) {
    message.erase(0, file.size() + 1);
  }
  SourceLocation loc;
  int line = 0, column = 0, consumed = 0;
  if (std::sscanf(message.c_str(), "%d:%d: %n", &line, &column, &consumed) ==
          2 &&
      consumed > 0) {
    loc.line = line;
    loc.column = column;
    message.erase(0, static_cast<size_t>(consumed));
  }
  Diagnostic d = cdes::analysis::MakeDiagnostic(Rule::kParseError,
                                                std::move(message), loc);
  d.file = file;
  return d;
}

// Aggregated reachability stats across every checked workflow (--check).
struct CheckSummary {
  bool enabled = false;
  size_t workflows = 0;
  size_t states = 0;
  size_t transitions = 0;
  bool bounded = false;
  std::vector<std::string> reasons;

  void Add(const cdes::analysis::ModelCheckStats& stats) {
    ++workflows;
    states += stats.states_explored;
    transitions += stats.transitions;
    if (stats.bounded) {
      bounded = true;
      if (!stats.bound_reason.empty()) reasons.push_back(stats.bound_reason);
    }
  }
};

int Usage() {
  std::fprintf(stderr,
               "usage: cdes-lint [--json] [--werror] [--no-redundancy] "
               "[--check] [--check-budget=STATES[,MILLIS]] file.wf...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool werror = false;
  AnalyzeOptions options;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--no-redundancy") {
      options.check_redundancy = false;
    } else if (arg == "--check") {
      options.check_reachability = true;
    } else if (arg.rfind("--check-budget=", 0) == 0) {
      options.check_reachability = true;
      unsigned long long states = 0, millis = 0;
      int matched = std::sscanf(arg.data() + std::strlen("--check-budget="),
                                "%llu,%llu", &states, &millis);
      if (matched < 1 || states == 0) return Usage();
      options.check.max_states = static_cast<size_t>(states);
      if (matched == 2) options.check.max_millis = millis;
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.empty()) return Usage();

  // The analyzer is driven without reachability here; --check invokes the
  // model checker explicitly so its stats can be aggregated and reported.
  CheckSummary summary;
  summary.enabled = options.check_reachability;
  options.check_reachability = false;

  std::vector<Diagnostic> all;
  for (const std::string& path : paths) {
    cdes::Result<std::string> text = cdes::ReadFile(path);
    if (!text.ok()) {
      std::fprintf(stderr, "cdes-lint: cannot open %s\n", path.c_str());
      return 2;
    }

    // Each file gets a fresh context: symbol ids and arenas are per-spec.
    WorkflowContext ctx;
    auto parsed = cdes::ParseWorkflows(&ctx, text.value(), path);
    if (!parsed.ok()) {
      all.push_back(ParseErrorDiagnostic(path, parsed.status().message()));
      continue;
    }
    for (const ParsedWorkflow& workflow : parsed.value()) {
      for (Diagnostic& d :
           cdes::analysis::AnalyzeWorkflow(&ctx, workflow, options)) {
        d.file = path;
        all.push_back(std::move(d));
      }
      if (summary.enabled) {
        cdes::analysis::CheckResult result =
            cdes::analysis::CheckWorkflow(&ctx, workflow, options.check);
        for (Diagnostic& d : result.diagnostics) {
          d.file = path;
          all.push_back(std::move(d));
        }
        summary.Add(result.stats);
      }
    }
  }

  if (json) {
    std::string body = cdes::analysis::DiagnosticsToJson(all);
    while (!body.empty() && body.back() == '\n') body.pop_back();
    if (summary.enabled) {
      std::string check = cdes::StrCat(
          "{\"bounded\": ", summary.bounded ? "true" : "false",
          ", \"states\": ", summary.states,
          ", \"transitions\": ", summary.transitions,
          ", \"workflows\": ", summary.workflows);
      if (summary.bounded) {
        check += cdes::StrCat(
            ", \"reason\": \"",
            cdes::obs::JsonEscape(cdes::StrJoin(summary.reasons, "; ")), "\"");
      }
      check += "}";
      std::printf("{\"diagnostics\": %s,\n \"check\": %s}\n", body.c_str(),
                  check.c_str());
    } else {
      std::printf("%s\n", body.c_str());
    }
  } else {
    if (!all.empty()) {
      std::printf("%s", cdes::analysis::FormatDiagnostics(all).c_str());
    }
    if (summary.enabled) {
      std::string tail =
          summary.bounded
              ? cdes::StrCat("bounded: ", cdes::StrJoin(summary.reasons, "; "))
              : std::string("exhaustive");
      std::printf("cdes-lint: --check explored %zu states / %zu transitions "
                  "across %zu workflows (%s)\n",
                  summary.states, summary.transitions, summary.workflows,
                  tail.c_str());
    }
  }

  using cdes::analysis::Severity;
  Severity fail_at = werror ? Severity::kWarning : Severity::kError;
  return cdes::analysis::HasFindings(all, fail_at) ? 1 : 0;
}
