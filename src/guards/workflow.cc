#include "guards/workflow.h"

#include "algebra/residuation.h"
#include "algebra/semantics.h"
#include "obs/profiler.h"
#include "temporal/guard_semantics.h"
#include "temporal/simplify.h"

namespace cdes {

std::set<SymbolId> WorkflowSpec::Symbols() const {
  std::set<SymbolId> out;
  for (const Dependency& d : dependencies_) {
    std::set<SymbolId> s = MentionedSymbols(d.expr);
    out.insert(s.begin(), s.end());
  }
  return out;
}

const Guard* CompiledWorkflow::GuardFor(EventLiteral literal) const {
  auto it = guards_.find(literal);
  return it == guards_.end() ? top_ : it->second;
}

const std::vector<std::pair<size_t, const Guard*>>&
CompiledWorkflow::ContributionsFor(EventLiteral literal) const {
  auto it = contributions_.find(literal);
  return it == contributions_.end() ? no_contributions_ : it->second;
}

const std::vector<SymbolId>& CompiledWorkflow::SubscribersOf(
    SymbolId symbol) const {
  auto it = subscribers_.find(symbol);
  return it == subscribers_.end() ? no_subscribers_ : it->second;
}

bool CompiledWorkflow::Generates(const Trace& u) const {
  if (impossible_) return false;
  for (size_t j = 0; j < u.size(); ++j) {
    // Definition 4: u_{j+1} = e requires u ⊨_j G(D, e) for every D.
    if (!HoldsAt(u, j, GuardFor(u[j]))) return false;
  }
  return true;
}

CompiledWorkflow CompileWorkflow(WorkflowContext* ctx,
                                 const WorkflowSpec& spec,
                                 const CompileOptions& options) {
  CompiledWorkflow out;
  out.top_ = ctx->guards()->True();
  out.dependencies_ = spec.dependencies();
  out.symbols_ = spec.Symbols();
  // An unsatisfiable dependency admits no computation at all (it may be
  // the constant 0 — symbol-free, so the usual "mentions e" test would
  // silently skip it — or a contradiction like e|ē). It contributes 0
  // everywhere.
  std::vector<bool> dep_impossible(out.dependencies_.size(), false);
  for (size_t di = 0; di < out.dependencies_.size(); ++di) {
    if (!IsSatisfiable(ctx->residuator(), out.dependencies_[di].expr)) {
      dep_impossible[di] = true;
      out.impossible_ = true;
    }
  }
  for (SymbolId s : out.symbols_) {
    for (EventLiteral l :
         {EventLiteral::Positive(s), EventLiteral::Complement(s)}) {
      std::vector<const Guard*> conj;
      for (size_t di = 0; di < out.dependencies_.size(); ++di) {
        const Dependency& dep = out.dependencies_[di];
        if (dep_impossible[di]) {
          out.contributions_[l].emplace_back(di, ctx->guards()->False());
          conj.push_back(ctx->guards()->False());
          continue;
        }
        std::set<SymbolId> dep_symbols = MentionedSymbols(dep.expr);
        if (!dep_symbols.count(s)) continue;
        bool simplify = options.simplify &&
                        dep_symbols.size() <= options.max_simplify_symbols;
        obs::GuardProfiler::Site* site = nullptr;
        bool sampled = false;
        uint64_t t0 = 0, steps0 = 0;
        size_t nodes0 = 0;
        if (options.profiler != nullptr) {
          site = options.profiler->RegisterSite(
              dep.name, ctx->alphabet()->LiteralName(l), dep.loc);
          sampled = options.profiler->BeginEvaluation(site);
          steps0 = ctx->residuator()->residuate_calls();
          nodes0 = ctx->guards()->node_count();
          if (sampled) t0 = obs::ProfilerNowNs();
        }
        const Guard* g =
            simplify ? ctx->synthesizer()->SynthesizeSimplified(dep.expr, l)
                     : ctx->synthesizer()->Synthesize(dep.expr, l);
        if (site != nullptr) {
          options.profiler->Record(
              site, ctx->residuator()->residuate_calls() - steps0,
              ctx->guards()->node_count() - nodes0,
              sampled ? obs::ProfilerNowNs() - t0 : 0, sampled);
        }
        out.contributions_[l].emplace_back(di, g);
        conj.push_back(g);
      }
      out.guards_[l] = ctx->guards()->And(conj);
    }
  }
  // Static subscriptions: t hears about every other symbol its two guards
  // mention. Visiting t in ascending order keeps every list ascending.
  for (SymbolId t : out.symbols_) {
    std::set<SymbolId> mentioned =
        GuardSymbols(out.GuardFor(EventLiteral::Positive(t)));
    std::set<SymbolId> negative =
        GuardSymbols(out.GuardFor(EventLiteral::Complement(t)));
    mentioned.insert(negative.begin(), negative.end());
    for (SymbolId s : mentioned) {
      if (s != t) out.subscribers_[s].push_back(t);
    }
  }
  return out;
}

CompiledWorkflowRef CompileWorkflowShared(WorkflowContext* ctx,
                                          const WorkflowSpec& spec,
                                          const CompileOptions& options) {
  return std::make_shared<const CompiledWorkflow>(
      CompileWorkflow(ctx, spec, options));
}

bool SatisfiesAll(const WorkflowSpec& spec, const Trace& u) {
  for (const Dependency& d : spec.dependencies()) {
    if (!Satisfies(u, d.expr)) return false;
  }
  return true;
}

}  // namespace cdes
