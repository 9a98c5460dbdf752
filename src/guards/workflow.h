#ifndef CDES_GUARDS_WORKFLOW_H_
#define CDES_GUARDS_WORKFLOW_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/source_location.h"
#include "guards/context.h"

namespace cdes {

namespace obs {
class GuardProfiler;
}  // namespace obs

/// A named intertask dependency: an expression of E constraining the
/// acceptable computations (§3.1: "A workflow W is a set of dependencies").
/// `loc` is where the dependency was declared in spec source, when parsed
/// from text (unknown for programmatically built specs).
struct Dependency {
  std::string name;
  const Expr* expr;
  SourceLocation loc;
};

/// A declarative workflow specification: a set of dependencies over the
/// context's alphabet.
class WorkflowSpec {
 public:
  void Add(std::string name, const Expr* expr, SourceLocation loc = {}) {
    dependencies_.push_back(Dependency{std::move(name), expr, loc});
  }

  const std::vector<Dependency>& dependencies() const { return dependencies_; }

  /// Mutable access for location back-patching (template instantiation).
  Dependency* mutable_dependency(size_t i) { return &dependencies_[i]; }

  /// All symbols mentioned by any dependency.
  std::set<SymbolId> Symbols() const;

 private:
  std::vector<Dependency> dependencies_;
};

struct CompileOptions {
  /// Apply SimplifyGuard to each synthesized guard (exponential in the
  /// per-dependency alphabet; produces the paper's succinct forms).
  bool simplify = true;
  /// Skip semantic canonicalization for dependencies mentioning more than
  /// this many symbols: the guard state space is 2^k·k!·(k+1) points, so
  /// beyond ~6 symbols only the cheap constructor rules apply (the guards
  /// stay correct, just less minimal).
  size_t max_simplify_symbols = 6;
  /// When set, every per-(dependency, literal) guard synthesis is profiled
  /// into this profiler (wall time, residuator calls, interned guard
  /// nodes), keyed by (dependency name, literal name) with the
  /// dependency's spec location — specc's --profile= view of where compile
  /// time goes.
  obs::GuardProfiler* profiler = nullptr;
};

/// The precompiled, event-centric form of a workflow: for every literal of
/// every mentioned symbol, the conjunction of the guards contributed by the
/// dependencies that mention its symbol (§4.2: "The guard on an event e due
/// to a workflow W is the conjunction of the guards due to the dependencies
/// in W that mention e"), and the static subscription relation of §4.3
/// that follows from those guards. Both are fixed once compiled, so every
/// runtime instance of the workflow shares one table and keeps only its own
/// actors' state (see GuardScheduler).
class CompiledWorkflow {
 public:
  /// The conjoined guard localized on `literal`; ⊤ for literals no
  /// dependency mentions.
  const Guard* GuardFor(EventLiteral literal) const;

  /// Per-dependency contributions to `literal` (dependency index, guard).
  const std::vector<std::pair<size_t, const Guard*>>& ContributionsFor(
      EventLiteral literal) const;

  /// The other symbols whose compiled guards (of either polarity) mention
  /// `symbol`, ascending: the actors an occurrence of `symbol` is announced
  /// to (§4.3). Reduction only shrinks the mentioned set, so the relation
  /// is static. Empty for symbols no other guard mentions.
  const std::vector<SymbolId>& SubscribersOf(SymbolId symbol) const;

  const std::vector<Dependency>& dependencies() const { return dependencies_; }
  const std::set<SymbolId>& symbols() const { return symbols_; }

  /// Definition 4: u is generated by W iff every event of u satisfies its
  /// guard at the index where it occurs. `u` should be a trace over the
  /// workflow's symbols (typically maximal). A workflow containing an
  /// unsatisfiable dependency generates nothing.
  bool Generates(const Trace& u) const;

  /// True when some dependency normalized to 0 — no computation can ever
  /// satisfy the workflow.
  bool impossible() const { return impossible_; }

 private:
  friend CompiledWorkflow CompileWorkflow(WorkflowContext* ctx,
                                          const WorkflowSpec& spec,
                                          const CompileOptions& options);
  friend class CompiledWorkflowTestPeer;  // defined by tests only

  const Guard* top_ = nullptr;
  bool impossible_ = false;
  std::vector<Dependency> dependencies_;
  std::set<SymbolId> symbols_;
  std::map<EventLiteral, const Guard*> guards_;
  std::map<EventLiteral, std::vector<std::pair<size_t, const Guard*>>>
      contributions_;
  std::vector<std::pair<size_t, const Guard*>> no_contributions_;
  std::map<SymbolId, std::vector<SymbolId>> subscribers_;
  std::vector<SymbolId> no_subscribers_;
};

/// Synthesizes and conjoins guards for every literal of every symbol the
/// workflow mentions.
CompiledWorkflow CompileWorkflow(WorkflowContext* ctx, const WorkflowSpec& spec,
                                 const CompileOptions& options = {});

/// A compiled workflow shared immutably among many consumers. Guard
/// synthesis is the expensive step (per-dependency canonicalization is
/// exponential in the dependency alphabet), and the result is pure data in
/// `ctx`'s arenas — so multi-instance runtimes compile once and hand every
/// instance the same table. Sharing is confined to `ctx`'s thread: the
/// guards reference (and runtime reduction interns into) arenas that are
/// not synchronized. The engine (src/engine) therefore keeps one of these
/// per shard, shared across all workflow instances resident on that shard.
using CompiledWorkflowRef = std::shared_ptr<const CompiledWorkflow>;

/// CompileWorkflow into a shareable immutable handle.
CompiledWorkflowRef CompileWorkflowShared(WorkflowContext* ctx,
                                          const WorkflowSpec& spec,
                                          const CompileOptions& options = {});

/// True iff u satisfies every dependency of `spec` (the right-hand side of
/// Theorem 6).
bool SatisfiesAll(const WorkflowSpec& spec, const Trace& u);

}  // namespace cdes

#endif  // CDES_GUARDS_WORKFLOW_H_
