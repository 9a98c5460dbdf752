#include "analysis/model_checker.h"

#include <algorithm>
#include <bit>
#include <bitset>
#include <chrono>
#include <deque>
#include <map>
#include <tuple>
#include <unordered_map>

#include "common/logging.h"
#include "common/strings.h"
#include "temporal/reduction.h"
#include "temporal/simplify.h"

namespace cdes::analysis {
namespace {

constexpr uint32_t kNoPred = 0xFFFFFFFFu;

/// Counterexample diagnostics emitted per rule and direction (every
/// reachable bad state is still *counted* in the stats).
constexpr size_t kMaxCounterexamples = 4;

/// One bit per literal, indexed 2i / 2i+1 like CheckState::guards.
using LiteralMask = std::bitset<128>;

size_t LiteralBit(size_t symbol_index, bool complemented) {
  return 2 * symbol_index + (complemented ? 1 : 0);
}

/// Exhaustive BFS over the canonical guard-state graph, with ample-set
/// partial-order reduction. The exploration follows two transition kinds at
/// once — guard-permitted firings (what the runtime admits) and
/// dependency-consistent firings (what the spec admits) — so both
/// directions of the Theorem 6 cross-validation come out of one pass:
/// a dependency-satisfying maximal state whose commitment collapsed is
/// "guards too strict"; a state whose commitment is ⊤ — every fired guard
/// discharged, so the runtime can sit there — with a violated dependency
/// is "guards too liberal", reported at the earliest such state of each
/// path (a generated computation that violates a dependency is one).
///
/// The runtime evaluates ¬ optimistically (§4.3), which is safe only if no
/// two events it may enable together disagree on their order. CL024
/// reports a ¬-race at a commitment-⊤ state u: literals a and b both
/// EnabledNow, each harmless alone, with D/u·a·b = 0. Races cost no extra
/// residuation: u ORs its mask of enabled, harmless literals into the
/// children fired through one of them, and the child's own candidate loop
/// has D/u·a·b for every undecided b. The mask is complete when the child
/// is expanded, because the decided set grows by one per transition, so
/// every parent sits one BFS layer above.
///
/// Soundness of the reduction: transitions in different entanglement
/// classes commute to bitwise-equal canonical states (reduction by an
/// unrelated literal is the identity on interned nodes, and the state graph
/// is acyclic — the decided set grows monotonically — so there is no
/// ignoring problem). Expanding one class per state therefore preserves
/// every maximal state exactly, and every CL020 state: the chosen class is
/// required to contain a commit-permitted literal, whose permission would
/// survive unchanged along any run avoiding the class — so a state where
/// *no* literal is permitted cannot hide behind skipped interleavings. The
/// ample set keeps no such promise for CL024 (the skipped class may hold
/// the racing pair while the chosen one leaves obligations pending), nor
/// for a CL023 witness that no accepted computation extends: those two
/// are exhaustive only with the reduction off.
class ModelChecker {
 public:
  ModelChecker(WorkflowContext* ctx, const ParsedWorkflow& workflow,
               const CompiledWorkflow& compiled,
               const ModelCheckOptions& options)
      : ctx_(ctx),
        workflow_(workflow),
        compiled_(compiled),
        options_(options),
        space_(ctx, compiled),
        cache_(ctx->reduction_cache()),
        flat_(ctx->flat_evaluator()) {}

  CheckResult Run() {
    auto start = std::chrono::steady_clock::now();
    BuildOwnership();
    permitted_.assign(space_.symbols().size(), false);

    CheckState initial = space_.Initial();
    uint32_t id = 0;
    auto [it, fresh] = ids_.emplace(std::move(initial), id);
    records_.push_back({&it->first, kNoPred, EventLiteral(), {}, false});
    std::deque<uint32_t> queue{id};

    while (!queue.empty()) {
      if (stats_.states_explored >= options_.max_states) {
        Bound(StrCat("state budget (", options_.max_states, ") exhausted"));
        break;
      }
      if ((stats_.states_explored & 63u) == 0) {
        auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        if (static_cast<uint64_t>(elapsed) > options_.max_millis) {
          Bound(StrCat("time budget (", options_.max_millis, "ms) exhausted"));
          break;
        }
      }
      uint32_t next = queue.front();
      queue.pop_front();
      ++stats_.states_explored;
      Expand(next, &queue);
    }

    if (!stats_.bounded) {
      ReportUnreachableEvents();
      ReportUnexercisedDeps();
    }
    std::stable_sort(diagnostics_.begin(), diagnostics_.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return std::tie(a.loc.line, a.loc.column, a.rule) <
                              std::tie(b.loc.line, b.loc.column, b.rule);
                     });
    stats_.elapsed_micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    return {std::move(diagnostics_), std::move(stats_)};
  }

 private:
  struct StateRecord {
    const CheckState* state;  // key in ids_ (node-stable)
    uint32_t pred;
    EventLiteral via;
    // Filled in by every parent before this state is expanded: literals
    // enabled and harmless alone together with the one a commitment-⊤
    // parent fired to get here, and whether some parent already witnessed
    // a violation (CL023 then reports only that earliest witness).
    LiteralMask raced;
    bool violated_above = false;
  };
  struct Candidate {
    EventLiteral lit;
    bool permitted;  // commit-now projection of its guard is not 0
    bool alive;      // the child state is worth exploring
  };

  void Bound(std::string reason) {
    stats_.bounded = true;
    stats_.bound_reason = std::move(reason);
  }

  void Expand(uint32_t id, std::deque<uint32_t>* queue) {
    const CheckState& s = *records_[id].state;
    LiteralMask raced = records_[id].raced;
    bool violated = records_[id].violated_above;
    bool settled = s.commitment->IsTrue();
    bool spec_alive = space_.SpecAlive(s);
    if (settled && !spec_alive) {
      // The guards admit this prefix with nothing pending, yet it already
      // violates a dependency: every continuation is too liberal.
      if (!violated) ReportLiberal(id, s);
      violated = true;
    }
    if (space_.Maximal(s)) {
      HandleMaximal(id, s);
      return;
    }
    bool guard_alive = space_.GuardAlive(s);
    bool race_checked = settled && spec_alive;
    LiteralMask enabled;

    std::vector<Candidate> cands;
    cands.reserve(2 * space_.symbols().size());
    bool any_permitted = false;
    for (size_t i = 0; i < space_.symbols().size(); ++i) {
      if (s.decided >> i & 1) continue;
      for (bool complement : {false, true}) {
        EventLiteral lit = space_.LiteralAt(i, complement);
        const Guard* commit = space_.Commitment(s, lit);
        bool permitted = !commit->IsFalse();
        any_permitted |= permitted;
        if (permitted && !complement) permitted_[i] = true;
        bool spec_ok = true;
        for (const Expr* r : s.residuals) {
          if (ctx_->residuator()->Residuate(r, lit)->IsZero()) {
            spec_ok = false;
            break;
          }
        }
        if (!spec_ok && raced[LiteralBit(i, complement)]) {
          ReportRace(id, lit);  // raced bits only reach spec-alive states
        }
        if (race_checked && spec_ok && space_.EnabledNow(s, lit)) {
          enabled.set(LiteralBit(i, complement));
        }
        bool alive = spec_ok;
        if (!alive && permitted) {
          // The child could still be guard-alive: fold the frozen
          // permission into the commitment and see whether it survives.
          const Guard* after = ReduceGuard(
              ctx_->guards(), ctx_->residuator(),
              ctx_->guards()->And(s.commitment, commit),
              Announcement{AnnouncementKind::kOccurred, lit}, cache_);
          alive = !after->IsFalse();
        }
        cands.push_back({lit, permitted, alive});
      }
    }

    if (guard_alive && !any_permitted) {
      // Every remaining literal's guard rejects: a reachable deadlock. The
      // state is terminal for the exploration — continuations exist only on
      // the spec side and the deadlock is their root cause.
      ++stats_.deadlock_states;
      ReportDeadlock(id, s);
      return;
    }

    if (!options_.partial_order_reduction) {
      for (const Candidate& c : cands) {
        if (c.alive) Fire(id, s, c.lit, enabled, violated, queue);
      }
      return;
    }

    // Ample-set choice: group candidates by entanglement class and expand
    // exactly one class. While the path is guard-legal the chosen class
    // must contain a permitted literal (CL020 preservation — see the class
    // comment); classes that cannot ever decide their symbols again
    // (no alive edge) disqualify themselves and, when every permitted
    // class is wedged that way, no maximal or deadlock state is reachable
    // below and the state is abandoned.
    std::vector<uint32_t> classes = space_.EntangledClasses(s);
    struct Comp {
      size_t alive = 0;
      bool permitted = false;
    };
    std::map<uint32_t, Comp> comps;
    for (const Candidate& c : cands) {
      Comp& comp = comps[classes[space_.SymbolIndex(c.lit.symbol())]];
      comp.alive += c.alive ? 1 : 0;
      comp.permitted |= c.permitted;
    }
    uint32_t best = kNoPred;
    size_t best_alive = 0;
    for (const auto& [rep, comp] : comps) {
      if (comp.alive == 0) continue;
      if (guard_alive && !comp.permitted) continue;
      if (best == kNoPred || comp.alive < best_alive) {
        best = rep;
        best_alive = comp.alive;
      }
    }
    if (best == kNoPred) return;
    for (const Candidate& c : cands) {
      if (c.alive && classes[space_.SymbolIndex(c.lit.symbol())] == best) {
        Fire(id, s, c.lit, enabled, violated, queue);
      }
    }
  }

  void Fire(uint32_t id, const CheckState& s, EventLiteral lit,
            const LiteralMask& enabled, bool violated,
            std::deque<uint32_t>* queue) {
    ++stats_.transitions;
    CheckState child = space_.Successor(s, lit);
    uint32_t child_id = static_cast<uint32_t>(records_.size());
    auto [it, fresh] = ids_.emplace(std::move(child), child_id);
    if (fresh) {
      records_.push_back({&it->first, id, lit, {}, false});
      queue->push_back(child_id);
    }
    StateRecord& rec = records_[it->second];
    if (enabled[LiteralBit(space_.SymbolIndex(lit.symbol()),
                           lit.complemented())]) {
      rec.raced |= enabled;
    }
    rec.violated_above |= violated;
  }

  void HandleMaximal(uint32_t id, const CheckState& s) {
    ++stats_.maximal_states;
    bool accepted = space_.Accepted(s);
    bool spec_ok = space_.SpecSatisfied(s);
    if (accepted) {
      ++stats_.accepted_states;
      // A generated computation that violates a dependency is reported by
      // Expand as (or below) its earliest too-liberal witness.
      if (spec_ok) {
        any_proper_run_ = true;
        for (size_t d = 0; d < dep_masks_.size(); ++d) {
          if (s.positive & dep_masks_[d]) exercised_[d] = true;
        }
      }
    } else if (spec_ok) {
      // Guards too strict: every dependency is satisfied but the guards do
      // not generate the computation.
      if (strict_reported_ < kMaxCounterexamples) {
        ++strict_reported_;
        Trace u = PathTo(id);
        Report(Rule::kGuardSpecMismatch,
               StrCat("computation ", TraceText(u),
                      " satisfies every dependency but is not generated by "
                      "the synthesized guards — guards are too strict"),
               WorkflowLoc(), Steps(u));
      }
    }
  }

  /// Guards too liberal: the guards admit `s` with every obligation met,
  /// yet it violates a dependency — the synthesis lost a constraint.
  void ReportLiberal(uint32_t id, const CheckState& s) {
    if (liberal_reported_ >= kMaxCounterexamples) return;
    ++liberal_reported_;
    Trace u = PathTo(id);
    size_t d = 0;  // some residual is 0 (the caller's !SpecAlive)
    while (!s.residuals[d]->IsZero()) ++d;
    const Dependency& dep = compiled_.dependencies()[d];
    Report(Rule::kGuardSpecMismatch,
           StrCat("synthesized guards ",
                  space_.Maximal(s) ? "generate " : "admit the prefix ",
                  TraceText(u), ", which violates dependency '", dep.name,
                  "' — guards are too liberal"),
           dep.loc, Steps(u));
  }

  /// ¬-race: `b` is undecided at state `id`, some parent u enabled both b
  /// and the literal a leading here, and D/u·a·b = 0.
  void ReportRace(uint32_t id, EventLiteral b) {
    if (race_reported_ >= kMaxCounterexamples) return;
    ++race_reported_;
    const CheckState& s = *records_[id].state;
    size_t d = 0;  // some residual collapses under b (the caller's spec_ok)
    while (!ctx_->residuator()->Residuate(s.residuals[d], b)->IsZero()) ++d;
    const Dependency& dep = compiled_.dependencies()[d];
    auto [parent, a] = RaceParent(id, b);
    Trace u = PathTo(parent);
    std::string at = u.empty() ? std::string("at the initial state")
                               : StrCat("after ", TraceText(u));
    u.push_back(a);
    u.push_back(b);
    Report(Rule::kNegationRace,
           StrCat("¬-race ", at, ": ", Name(a), " and ", Name(b),
                  " are both enabled, and ", Name(a), " then ", Name(b),
                  " violates dependency '", dep.name,
                  "' — optimistic ¬ evaluation is unsafe here"),
           dep.loc, Steps(u));
  }

  /// The first (shortest-path) parent of state `id` that has commitment ⊤
  /// and enables both `b`, harmless there, and the literal a it fires to
  /// reach `id`; some parent set the race bit, and every parent precedes
  /// `id` in BFS order.
  std::pair<uint32_t, EventLiteral> RaceParent(uint32_t id,
                                               EventLiteral b) const {
    const CheckState& child = *records_[id].state;
    for (uint32_t p = 0; p < id; ++p) {
      const CheckState& s = *records_[p].state;
      uint64_t fired = child.decided & ~s.decided;
      if ((s.decided & ~child.decided) != 0 || std::popcount(fired) != 1 ||
          !s.commitment->IsTrue()) {
        continue;
      }
      size_t i = static_cast<size_t>(std::countr_zero(fired));
      EventLiteral a = space_.LiteralAt(i, !(child.positive >> i & 1));
      bool b_harmless = std::none_of(
          s.residuals.begin(), s.residuals.end(), [&](const Expr* r) {
            return ctx_->residuator()->Residuate(r, b)->IsZero();
          });
      if (b_harmless && space_.EnabledNow(s, a) && space_.EnabledNow(s, b) &&
          space_.Successor(s, a) == child) {
        return {p, a};
      }
    }
    CDES_CHECK(false) << "race bit without a racing parent";
    return {};
  }


  void ReportDeadlock(uint32_t id, const CheckState& s) {
    if (deadlock_reported_ >= kMaxCounterexamples) return;
    ++deadlock_reported_;
    Trace u = PathTo(id);
    std::vector<std::string> blocked;
    SourceLocation loc;
    for (size_t i = 0; i < space_.symbols().size() && blocked.size() < 6; ++i) {
      if (s.decided >> i & 1) continue;
      EventLiteral lit = space_.LiteralAt(i, false);
      int dep = BlockingDependency(u, lit);
      if (dep >= 0) {
        const Dependency& blocker = compiled_.dependencies()[dep];
        blocked.push_back(StrCat(Name(lit), " blocked by dependency '",
                                 blocker.name, "'"));
        if (!loc.known()) loc = blocker.loc;
      } else {
        blocked.push_back(StrCat(Name(lit), " blocked"));
      }
    }
    if (!loc.known()) loc = WorkflowLoc();
    std::string after =
        u.empty() ? std::string("at the initial state")
                  : StrCat("after ", TraceText(u));
    Report(Rule::kReachableDeadlock,
           StrCat("reachable deadlock ", after,
                  ": no event can ever be permitted again (",
                  StrJoin(blocked, "; "), ")"),
           loc, Steps(u));
  }

  void ReportUnreachableEvents() {
    for (size_t i = 0; i < space_.symbols().size(); ++i) {
      if (permitted_[i]) continue;
      SymbolId symbol = space_.symbols()[i];
      const Guard* g = compiled_.GuardFor(EventLiteral::Positive(symbol));
      // Statically dead guards are CL003's finding (under the same symbol
      // cap); CL021 is reserved for the conjunction-of-guards interactions
      // only reachability sees.
      if (g->IsFalse()) continue;
      if (GuardSymbols(g).size() <= kMaxStateSpaceSymbols &&
          GuardIsUnsatisfiable(g)) {
        continue;
      }
      unreachable_.insert(symbol);
      Report(Rule::kUnreachableEvent,
             StrCat("event '", ctx_->alphabet()->Name(symbol),
                    "' can never occur: although its guard is satisfiable in "
                    "isolation, no reachable state permits it"),
             EventLoc(symbol), {});
    }
  }

  void ReportUnexercisedDeps() {
    // Without a single proper run the workflow-level findings (CL020/CL023)
    // already explain everything; per-dependency vacuity would be noise.
    if (!any_proper_run_) return;
    for (size_t d = 0; d < exercised_.size(); ++d) {
      if (exercised_[d]) continue;
      const Dependency& dep = compiled_.dependencies()[d];
      std::set<SymbolId> syms = MentionedSymbols(dep.expr);
      bool root_caused = false;
      for (SymbolId symbol : syms) {
        root_caused |= unreachable_.count(symbol) > 0;
        root_caused |=
            compiled_.GuardFor(EventLiteral::Positive(symbol))->IsFalse();
      }
      if (root_caused) continue;
      std::vector<std::string> names;
      for (SymbolId symbol : syms) names.push_back(ctx_->alphabet()->Name(symbol));
      Report(Rule::kUnexercisedDep,
             StrCat("dependency '", dep.name,
                    "' is never exercised: no accepted computation fires any "
                    "of ", StrJoin(names, ", ")),
             dep.loc, {});
    }
  }

  /// The first dependency whose contribution to `lit`'s guard, reduced
  /// along `u`, rejects firing now; -1 when none individually rejects.
  int BlockingDependency(const Trace& u, EventLiteral lit) const {
    for (const auto& [dep, guard] : compiled_.ContributionsFor(lit)) {
      const Guard* g = guard;
      for (EventLiteral step : u) {
        g = ReduceGuard(ctx_->guards(), ctx_->residuator(), g,
                        Announcement{AnnouncementKind::kOccurred, step},
                        cache_);
      }
      if (flat_->Commit(ctx_->guards(), g)->IsFalse()) {
        return static_cast<int>(dep);
      }
    }
    return -1;
  }

  Trace PathTo(uint32_t id) const {
    Trace u;
    for (uint32_t cur = id; records_[cur].pred != kNoPred;
         cur = records_[cur].pred) {
      u.push_back(records_[cur].via);
    }
    std::reverse(u.begin(), u.end());
    return u;
  }

  std::vector<TraceStep> Steps(const Trace& u) const {
    std::vector<TraceStep> steps;
    steps.reserve(u.size());
    for (EventLiteral lit : u) {
      TraceStep step;
      step.literal = Name(lit);
      int owner = owner_dep_.at(lit.symbol());
      if (owner >= 0) {
        const Dependency& dep = compiled_.dependencies()[owner];
        step.dependency = dep.name;
        step.loc = dep.loc;
      }
      if (!step.loc.known()) step.loc = EventLoc(lit.symbol());
      steps.push_back(std::move(step));
    }
    return steps;
  }

  void Report(Rule rule, std::string message, SourceLocation loc,
              std::vector<TraceStep> steps) {
    Diagnostic d = MakeDiagnostic(rule, std::move(message), loc);
    d.trace = std::move(steps);
    diagnostics_.push_back(std::move(d));
  }

  std::string Name(EventLiteral lit) const {
    return ctx_->alphabet()->LiteralName(lit);
  }

  std::string TraceText(const Trace& u) const {
    return TraceToString(u, *ctx_->alphabet());
  }

  SourceLocation EventLoc(SymbolId symbol) const {
    const EventDecl* decl = workflow_.FindEvent(symbol);
    if (decl != nullptr && decl->loc.known()) return decl->loc;
    int owner = owner_dep_.at(symbol);
    return owner >= 0 ? compiled_.dependencies()[owner].loc : SourceLocation{};
  }

  SourceLocation WorkflowLoc() const {
    return compiled_.dependencies().empty()
               ? SourceLocation{}
               : compiled_.dependencies().front().loc;
  }

  void BuildOwnership() {
    const auto& deps = compiled_.dependencies();
    for (SymbolId symbol : space_.symbols()) owner_dep_[symbol] = -1;
    dep_masks_.assign(deps.size(), 0);
    exercised_.assign(deps.size(), false);
    for (size_t d = 0; d < deps.size(); ++d) {
      for (SymbolId symbol : MentionedSymbols(deps[d].expr)) {
        auto it = owner_dep_.find(symbol);
        if (it == owner_dep_.end()) continue;  // undeclared / other workflow
        if (it->second < 0) it->second = static_cast<int>(d);
        dep_masks_[d] |= 1ull << space_.SymbolIndex(symbol);
      }
    }
  }

  WorkflowContext* ctx_;
  const ParsedWorkflow& workflow_;
  const CompiledWorkflow& compiled_;
  const ModelCheckOptions& options_;
  StateSpace space_;
  ReductionCache* cache_;
  FlatEvaluator* flat_;

  std::unordered_map<CheckState, uint32_t, CheckStateHash> ids_;
  std::vector<StateRecord> records_;
  std::vector<Diagnostic> diagnostics_;
  ModelCheckStats stats_;

  std::vector<bool> permitted_;     // positive literal seen permitted
  std::vector<uint64_t> dep_masks_; // symbol-index bits per dependency
  std::vector<bool> exercised_;
  std::map<SymbolId, int> owner_dep_;
  std::set<SymbolId> unreachable_;
  bool any_proper_run_ = false;
  size_t deadlock_reported_ = 0;
  size_t liberal_reported_ = 0;
  size_t strict_reported_ = 0;
  size_t race_reported_ = 0;
};

}  // namespace

CheckResult CheckCompiled(WorkflowContext* ctx, const ParsedWorkflow& workflow,
                          const CompiledWorkflow& compiled,
                          const ModelCheckOptions& options) {
  CheckResult result;
  if (compiled.impossible()) {
    result.stats.bounded = true;
    result.stats.bound_reason =
        "workflow has an unsatisfiable dependency (CL001); "
        "reachability not explored";
    return result;
  }
  size_t symbols = compiled.symbols().size();
  if (symbols > options.max_symbols || symbols > 64) {
    result.stats.bounded = true;
    result.stats.bound_reason =
        StrCat("workflow mentions ", symbols, " symbols, above the ",
               std::min<size_t>(options.max_symbols, 64),
               "-symbol exploration cap");
    return result;
  }
  ModelChecker checker(ctx, workflow, compiled, options);
  return checker.Run();
}

CheckResult CheckWorkflow(WorkflowContext* ctx, const ParsedWorkflow& workflow,
                          const ModelCheckOptions& options) {
  CompiledWorkflow compiled = CompileWorkflow(ctx, workflow.spec);
  return CheckCompiled(ctx, workflow, compiled, options);
}

}  // namespace cdes::analysis
