#include "analysis/analyzer.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "analysis/wait_graph.h"
#include "common/logging.h"
#include "common/strings.h"
#include "temporal/simplify.h"

namespace cdes::analysis {
namespace {

/// Max joint symbols of a dependency pair for the redundancy check (CL007).
constexpr size_t kMaxEntailmentSymbols = 8;

/// Decides traces(d1) ⊆ traces(d2) by exploring, with memoization, every
/// interleaving of the joint alphabet through both residual machines at
/// once (Figure 2 run in lockstep). A maximal trace over the joint symbols
/// residuates each dependency to ⊤ (satisfied) or 0 (violated), so the
/// containment fails exactly when some leaf reaches (⊤, non-⊤).
class EntailmentChecker {
 public:
  EntailmentChecker(Residuator* residuator, std::vector<SymbolId> symbols)
      : residuator_(residuator), symbols_(std::move(symbols)) {}

  bool Entails(const Expr* d1, const Expr* d2) {
    uint32_t all = symbols_.size() >= 32
                       ? 0xFFFFFFFFu
                       : (1u << symbols_.size()) - 1u;
    return !ViolationExists(d1, d2, all);
  }

 private:
  bool ViolationExists(const Expr* r1, const Expr* r2, uint32_t remaining) {
    // Once d1 is violated no extension revives it (0/x = 0): no violation
    // below. Once d2 is satisfied-forever (⊤/x = ⊤): no violation below.
    if (r1->IsZero() || r2->IsTop()) return false;
    if (remaining == 0) return r1->IsTop();
    auto key = std::make_tuple(r1, r2, remaining);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    bool found = false;
    for (size_t i = 0; i < symbols_.size() && !found; ++i) {
      uint32_t bit = 1u << i;
      if (!(remaining & bit)) continue;
      for (EventLiteral literal : {EventLiteral::Positive(symbols_[i]),
                                   EventLiteral::Complement(symbols_[i])}) {
        const Expr* n1 = residuator_->Residuate(r1, literal);
        const Expr* n2 = residuator_->Residuate(r2, literal);
        if (ViolationExists(n1, n2, remaining & ~bit)) {
          found = true;
          break;
        }
      }
    }
    memo_.emplace(key, found);
    return found;
  }

  Residuator* residuator_;
  std::vector<SymbolId> symbols_;
  std::map<std::tuple<const Expr*, const Expr*, uint32_t>, bool> memo_;
};

/// True when `g` denotes no point of its state space. The constructor
/// rules collapse most dead guards to the False node; the semantic check
/// catches the rest, but only below the state-space cap.
bool GuardDefinitelyDead(const Guard* g) {
  if (g->IsFalse()) return true;
  if (g->IsTrue()) return false;
  if (GuardSymbols(g).size() > kMaxStateSpaceSymbols) return false;
  return GuardIsUnsatisfiable(g);
}

class Analyzer {
 public:
  Analyzer(WorkflowContext* ctx, const ParsedWorkflow& workflow,
           const AnalyzeOptions& options)
      : ctx_(ctx), workflow_(workflow), options_(options) {}

  std::vector<Diagnostic> Run() {
    CheckHygiene();
    bool any_unsatisfiable = CheckDependencyTriviality();
    // With an unsatisfiable dependency every guard of the workflow is 0;
    // the downstream passes would only restate the root cause.
    if (!any_unsatisfiable) {
      CompiledWorkflow simplified = CompileWorkflow(ctx_, workflow_.spec);
      // The wait graph needs the raw synthesized guards: simplification
      // collapses a mutual wait like □f∧¬f to 0, which would mask the
      // cycle structure behind a bare dead-event finding.
      CompiledWorkflow raw = CompileWorkflow(
          ctx_, workflow_.spec, CompileOptions{.simplify = false});
      FindDeadLiterals(simplified);
      CheckWaitGraph(raw);
      CheckGuardTriviality();
      if (options_.check_redundancy) CheckRedundancy();
      if (options_.check_reachability) {
        CheckResult result =
            CheckCompiled(ctx_, workflow_, simplified, options_.check);
        for (Diagnostic& d : result.diagnostics) {
          diagnostics_.push_back(std::move(d));
        }
      }
    }
    std::stable_sort(diagnostics_.begin(), diagnostics_.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return std::tie(a.loc.line, a.loc.column, a.rule) <
                              std::tie(b.loc.line, b.loc.column, b.rule);
                     });
    return std::move(diagnostics_);
  }

 private:
  void Report(Rule rule, std::string message, SourceLocation loc) {
    diagnostics_.push_back(MakeDiagnostic(rule, std::move(message), loc));
  }

  std::string Name(EventLiteral literal) const {
    return ctx_->alphabet()->LiteralName(literal);
  }

  const std::string& Name(SymbolId symbol) const {
    return ctx_->alphabet()->Name(symbol);
  }

  std::string Print(const Expr* expr) const {
    return ExprToString(expr, *ctx_->alphabet());
  }

  SourceLocation EventLoc(SymbolId symbol) const {
    const EventDecl* decl = workflow_.FindEvent(symbol);
    if (decl != nullptr && decl->loc.known()) return decl->loc;
    // Programmatic workflows (and sparse specs) often have no event
    // declarations; anchoring at the first dependency mentioning the
    // symbol beats printing the default-constructed 0:0.
    for (const Dependency& dep : workflow_.spec.dependencies()) {
      if (MentionedSymbols(dep.expr).count(symbol)) return dep.loc;
    }
    return SourceLocation{};
  }

  // -------------------------------------------------- symbol hygiene

  void CheckHygiene() {
    std::set<SymbolId> declared;
    for (const EventDecl& event : workflow_.events) {
      declared.insert(event.symbol);
      if (event.agent.empty()) {
        Report(Rule::kUnassignedEvent,
               StrCat("event '", event.name,
                      "' is not assigned to an agent; no task can attempt "
                      "or reject it"),
               event.loc);
      }
    }
    std::set<SymbolId> constrained = workflow_.spec.Symbols();
    for (const Dependency& dep : workflow_.spec.dependencies()) {
      for (SymbolId symbol : MentionedSymbols(dep.expr)) {
        if (!declared.count(symbol)) {
          Report(Rule::kUndeclaredEvent,
                 StrCat("dependency '", dep.name,
                        "' mentions undeclared event '", Name(symbol), "'"),
                 dep.loc);
        }
      }
    }
    for (const EventDecl& event : workflow_.events) {
      if (!constrained.count(event.symbol)) {
        Report(Rule::kUnconstrainedEvent,
               StrCat("event '", event.name,
                      "' is declared but no dependency constrains it"),
               event.loc);
      }
    }
  }

  // ------------------------------------------- dependency triviality

  bool DependencyVacuous(const Expr* expr) {
    if (expr->IsTop()) return true;
    if (MentionedSymbols(expr).size() > kMaxStateSpaceSymbols) {
      return false;
    }
    // ◇E ≡ ⊤ over Γ_E iff every maximal trace eventually satisfies E.
    return GuardIsValid(ctx_->guards()->Diamond(expr));
  }

  bool CheckDependencyTriviality() {
    bool any_unsatisfiable = false;
    for (const Dependency& dep : workflow_.spec.dependencies()) {
      if (!IsSatisfiable(ctx_->residuator(), dep.expr)) {
        any_unsatisfiable = true;
        trivial_.insert(dep.expr);
        Report(Rule::kUnsatisfiableDep,
               StrCat("dependency '", dep.name, "' is unsatisfiable (≡ 0): ",
                      "no computation can satisfy ", Print(dep.expr)),
               dep.loc);
      } else if (DependencyVacuous(dep.expr)) {
        trivial_.insert(dep.expr);
        Report(Rule::kVacuousDep,
               StrCat("dependency '", dep.name,
                      "' is vacuous (≡ ⊤): every computation satisfies ",
                      Print(dep.expr)),
               dep.loc);
      }
    }
    return any_unsatisfiable;
  }

  // ------------------------------------------------ guard triviality

  void FindDeadLiterals(const CompiledWorkflow& compiled) {
    for (SymbolId symbol : compiled.symbols()) {
      for (EventLiteral literal :
           {EventLiteral::Positive(symbol), EventLiteral::Complement(symbol)}) {
        if (GuardDefinitelyDead(compiled.GuardFor(literal))) {
          dead_.insert(literal);
        }
      }
    }
  }

  /// CL003/CL004 for dead literals the wait-graph pass has not already
  /// explained: a cycle member's guard is ≡ 0 *because* of the cycle, and
  /// CL005 names the root cause.
  void CheckGuardTriviality() {
    for (EventLiteral literal : dead_) {
      if (deadlocked_.count(literal)) continue;
      SymbolId symbol = literal.symbol();
      if (!literal.complemented()) {
        Report(Rule::kDeadEvent,
               StrCat("event '", Name(symbol),
                      "' can never be permitted: its synthesized guard G(W, ",
                      Name(symbol), ") ≡ 0"),
               EventLoc(symbol));
      } else {
        Report(Rule::kForcedEvent,
               StrCat("event '", Name(symbol),
                      "' can never be rejected: the guard of ", Name(literal),
                      " ≡ 0, so the event is forced"),
               EventLoc(symbol));
      }
    }
  }

  // ------------------------------------------------------ wait graph

  bool Dead(EventLiteral literal) const {
    return dead_.count(literal) || deadlocked_.count(literal);
  }

  void CheckWaitGraph(const CompiledWorkflow& raw) {
    WaitGraph graph = BuildWaitGraph(raw);
    for (const std::vector<EventLiteral>& cycle : FindWaitCycles(graph)) {
      std::vector<std::string> parts;
      for (EventLiteral member : cycle) {
        deadlocked_.insert(member);
        std::vector<std::string> waits;
        for (EventLiteral need : graph.edges.at(member)) {
          if (std::find(cycle.begin(), cycle.end(), need) != cycle.end()) {
            waits.push_back(Name(need));
          }
        }
        parts.push_back(
            StrCat(Name(member), " waits for ", StrJoin(waits, ", ")));
      }
      Report(Rule::kStaticDeadlock,
             StrCat("static deadlock: ", parts.size(),
                    " events wait on each other's occurrence and none can "
                    "ever be permitted (", StrJoin(parts, "; "), ")"),
             EventLoc(cycle.front().symbol()));
    }
    for (const auto& [literal, needs] : graph.edges) {
      if (Dead(literal)) continue;
      for (EventLiteral need : needs) {
        if (!Dead(need)) continue;
        Report(Rule::kWaitOnDead,
               StrCat("event literal ", Name(literal), " waits for ",
                      Name(need), ", which can never occur"),
               EventLoc(literal.symbol()));
      }
    }
  }

  // ------------------------------------------------------ redundancy

  void CheckRedundancy() {
    const std::vector<Dependency>& deps = workflow_.spec.dependencies();
    for (size_t i = 0; i < deps.size(); ++i) {
      if (trivial_.count(deps[i].expr)) continue;
      for (size_t j = i + 1; j < deps.size(); ++j) {
        if (trivial_.count(deps[j].expr)) continue;
        if (deps[i].expr == deps[j].expr) {
          Report(Rule::kRedundantDep,
                 StrCat("dependency '", deps[j].name,
                        "' duplicates dependency '", deps[i].name, "'"),
                 deps[j].loc);
          continue;
        }
        std::set<SymbolId> joint = MentionedSymbols(deps[i].expr);
        std::set<SymbolId> other = MentionedSymbols(deps[j].expr);
        bool shares = false;
        for (SymbolId s : other) shares |= joint.count(s) > 0;
        if (!shares) continue;  // disjoint alphabets cannot entail
        joint.insert(other.begin(), other.end());
        if (joint.size() > kMaxEntailmentSymbols) continue;
        EntailmentChecker checker(
            ctx_->residuator(),
            std::vector<SymbolId>(joint.begin(), joint.end()));
        bool forward = checker.Entails(deps[i].expr, deps[j].expr);
        bool backward = checker.Entails(deps[j].expr, deps[i].expr);
        if (forward && backward) {
          Report(Rule::kRedundantDep,
                 StrCat("dependency '", deps[j].name, "' is equivalent to '",
                        deps[i].name, "'"),
                 deps[j].loc);
        } else if (forward) {
          Report(Rule::kRedundantDep,
                 StrCat("dependency '", deps[j].name,
                        "' is redundant: it is already implied by '",
                        deps[i].name, "'"),
                 deps[j].loc);
        } else if (backward) {
          Report(Rule::kRedundantDep,
                 StrCat("dependency '", deps[i].name,
                        "' is redundant: it is already implied by '",
                        deps[j].name, "'"),
                 deps[i].loc);
        }
      }
    }
  }

  WorkflowContext* ctx_;
  const ParsedWorkflow& workflow_;
  const AnalyzeOptions& options_;
  std::vector<Diagnostic> diagnostics_;
  std::set<const Expr*> trivial_;
  std::set<EventLiteral> dead_;
  std::set<EventLiteral> deadlocked_;
};

}  // namespace

std::vector<Diagnostic> AnalyzeWorkflow(WorkflowContext* ctx,
                                        const ParsedWorkflow& workflow,
                                        const AnalyzeOptions& options) {
  Analyzer analyzer(ctx, workflow, options);
  return analyzer.Run();
}

bool DependencyEntails(WorkflowContext* ctx, const Expr* d1, const Expr* d2) {
  std::set<SymbolId> joint = MentionedSymbols(d1);
  std::set<SymbolId> other = MentionedSymbols(d2);
  joint.insert(other.begin(), other.end());
  CDES_CHECK_LE(joint.size(), 30u);
  EntailmentChecker checker(ctx->residuator(),
                            std::vector<SymbolId>(joint.begin(), joint.end()));
  return checker.Entails(d1, d2);
}

}  // namespace cdes::analysis
