#include "algebra/residuation.h"

#include <algorithm>
#include <deque>

#include "algebra/semantics.h"
#include "common/strings.h"

namespace cdes {

const Expr* Residuator::NormalForm(const Expr* e) {
  auto it = normal_cache_.find(e);
  if (it != normal_cache_.end()) return it->second;

  const Expr* result = e;
  switch (e->kind()) {
    case ExprKind::kZero:
    case ExprKind::kTop:
    case ExprKind::kAtom:
      break;
    case ExprKind::kOr:
    case ExprKind::kAnd: {
      std::vector<const Expr*> kids;
      kids.reserve(e->children().size());
      for (const Expr* c : e->children()) kids.push_back(NormalForm(c));
      result = e->kind() == ExprKind::kOr ? arena_->Or(kids)
                                          : arena_->And(kids);
      // Rebuilding may expose new Seq nodes (e.g. collapsed singletons);
      // they are already normalized because their parts were.
      break;
    }
    case ExprKind::kSeq: {
      std::vector<const Expr*> kids;
      kids.reserve(e->children().size());
      for (const Expr* c : e->children()) kids.push_back(NormalForm(c));
      // Distribute the first +/| child out of the sequence:
      //   A·(X+Y)·B = A·X·B + A·Y·B   and   A·(X|Y)·B = (A·X·B)|(A·Y·B),
      // both validated by the trace semantics (· distributes over + and |).
      size_t pivot = kids.size();
      for (size_t i = 0; i < kids.size(); ++i) {
        if (kids[i]->kind() == ExprKind::kOr ||
            kids[i]->kind() == ExprKind::kAnd) {
          pivot = i;
          break;
        }
      }
      if (pivot == kids.size()) {
        result = arena_->Seq(kids);
      } else {
        const Expr* inner = kids[pivot];
        std::vector<const Expr*> alternatives;
        alternatives.reserve(inner->children().size());
        for (const Expr* alt : inner->children()) {
          std::vector<const Expr*> seq(kids);
          seq[pivot] = alt;
          alternatives.push_back(NormalForm(arena_->Seq(seq)));
        }
        result = inner->kind() == ExprKind::kOr ? arena_->Or(alternatives)
                                                : arena_->And(alternatives);
      }
      break;
    }
  }
  normal_cache_.emplace(e, result);
  return result;
}

const Expr* Residuator::Residuate(const Expr* e, EventLiteral x) {
  ++residuate_calls_;
  return ResiduateNormal(NormalForm(e), x);
}

const Expr* Residuator::ResiduateNormal(const Expr* e, EventLiteral x) {
  auto key = std::make_pair(e, x);
  auto it = resid_cache_.find(key);
  if (it != resid_cache_.end()) {
    ++cache_hits_;
    return it->second;
  }
  ++cache_misses_;

  const Expr* result = nullptr;
  switch (e->kind()) {
    case ExprKind::kZero:  // Residuation 1
      result = arena_->Zero();
      break;
    case ExprKind::kTop:  // Residuation 2
      result = arena_->Top();
      break;
    case ExprKind::kAtom: {
      EventLiteral lit = e->literal();
      if (lit == x) {
        result = arena_->Top();  // Residuation 3 with empty tail
      } else if (lit == x.Complemented()) {
        result = arena_->Zero();  // Residuation 8: x̄ can no longer occur
      } else {
        result = e;  // Residuation 6
      }
      break;
    }
    case ExprKind::kOr: {  // Residuation 4
      std::vector<const Expr*> kids;
      kids.reserve(e->children().size());
      for (const Expr* c : e->children()) kids.push_back(ResiduateNormal(c, x));
      result = arena_->Or(kids);
      break;
    }
    case ExprKind::kAnd: {  // Residuation 5
      std::vector<const Expr*> kids;
      kids.reserve(e->children().size());
      for (const Expr* c : e->children()) kids.push_back(ResiduateNormal(c, x));
      result = arena_->And(kids);
      break;
    }
    case ExprKind::kSeq: {
      // In normal form every sequence child is an atom.
      const std::vector<const Expr*>& kids = e->children();
      bool mentions_complement = false;
      size_t position = kids.size();
      for (size_t i = 0; i < kids.size(); ++i) {
        CDES_DCHECK(kids[i]->IsAtom()) << "sequence not in normal form";
        EventLiteral lit = kids[i]->literal();
        if (lit == x.Complemented()) mentions_complement = true;
        if (lit == x && position == kids.size()) position = i;
      }
      if (mentions_complement) {
        result = arena_->Zero();  // Residuation 8
      } else if (position == 0) {
        // Residuation 3: drop the consumed head.
        std::vector<const Expr*> tail(kids.begin() + 1, kids.end());
        result = arena_->Seq(tail);
      } else if (position < kids.size()) {
        // Residuation 7: x had to be preceded by kids[0..position), which
        // have not occurred; the required order is already violated.
        result = arena_->Zero();
      } else {
        result = e;  // Residuation 6
      }
      break;
    }
  }
  resid_cache_.emplace(key, result);
  return result;
}

const Expr* Residuator::ResiduateTrace(const Expr* e, const Trace& u) {
  const Expr* cur = NormalForm(e);
  for (EventLiteral l : u) cur = ResiduateNormal(cur, l);
  return cur;
}

const Expr* Residuator::ResiduateTrace(const Expr* e, const Trace& u,
                                       const std::vector<bool>& mentioned) {
  const Expr* cur = NormalForm(e);
  for (EventLiteral l : u) {
    if (l.symbol() < mentioned.size() && mentioned[l.symbol()]) {
      cur = ResiduateNormal(cur, l);
    }
  }
  return cur;
}

std::vector<bool> ResiduateModelTheoretic(const Expr* e, EventLiteral x,
                                          const std::vector<Trace>& universe) {
  std::vector<bool> out(universe.size(), true);
  for (size_t vi = 0; vi < universe.size(); ++vi) {
    const Trace& v = universe[vi];
    for (const Trace& u : universe) {
      // u ⊨ x (the atom) iff x occurs on u.
      if (std::find(u.begin(), u.end(), x) == u.end()) continue;
      Trace uv = u;
      uv.insert(uv.end(), v.begin(), v.end());
      if (!IsValidTrace(uv)) continue;
      if (!Satisfies(uv, e)) {
        out[vi] = false;
        break;
      }
    }
  }
  return out;
}

size_t ResidualGraph::IndexOf(const Expr* state) const {
  for (size_t i = 0; i < states.size(); ++i) {
    if (states[i] == state) return i;
  }
  return static_cast<size_t>(-1);
}

ResidualGraph BuildResidualGraph(Residuator* residuator, const Expr* d) {
  ResidualGraph graph;
  const Expr* initial = residuator->NormalForm(d);
  graph.states.push_back(initial);
  std::deque<size_t> frontier = {0};
  while (!frontier.empty()) {
    size_t si = frontier.front();
    frontier.pop_front();
    const Expr* state = graph.states[si];
    // Residuals never mention an already-consumed symbol, so stepping by
    // Γ of the current state exactly enumerates the valid next events.
    for (EventLiteral l : Gamma(state)) {
      const Expr* next = residuator->Residuate(state, l);
      size_t ni = graph.IndexOf(next);
      if (ni == static_cast<size_t>(-1)) {
        ni = graph.states.size();
        graph.states.push_back(next);
        frontier.push_back(ni);
      }
      graph.edges[{si, l}] = ni;
    }
  }
  return graph;
}

std::string ResidualGraphToDot(const ResidualGraph& graph,
                               const Alphabet& alphabet,
                               std::string_view title) {
  std::string out = "digraph \"";
  out += title;
  out += "\" {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n";
  for (size_t i = 0; i < graph.states.size(); ++i) {
    const Expr* state = graph.states[i];
    out += StrCat("  s", i, " [label=\"",
                  ExprToString(state, alphabet), "\"");
    if (state->IsTop()) out += ", shape=doublecircle";
    if (state->IsZero()) out += ", style=dashed";
    out += "];\n";
  }
  for (const auto& [key, to] : graph.edges) {
    out += StrCat("  s", key.first, " -> s", to, " [label=\"",
                  alphabet.LiteralName(key.second), "\"];\n");
  }
  out += "}\n";
  return out;
}

bool IsSatisfiable(Residuator* residuator, const Expr* e) {
  ResidualGraph graph = BuildResidualGraph(residuator, e);
  return graph.IndexOf(residuator->arena()->Top()) !=
         static_cast<size_t>(-1);
}

namespace {

void EnumeratePathsRec(Residuator* residuator, const Expr* state,
                       const std::vector<SymbolId>& remaining, Trace* path,
                       size_t max_paths, std::vector<Trace>* out) {
  if (out->size() >= max_paths) return;
  if (state->IsTop()) out->push_back(*path);
  if (state->IsZero()) return;
  for (size_t i = 0; i < remaining.size(); ++i) {
    std::vector<SymbolId> rest = remaining;
    rest.erase(rest.begin() + i);
    for (bool complemented : {false, true}) {
      EventLiteral l(remaining[i], complemented);
      path->push_back(l);
      EnumeratePathsRec(residuator, residuator->Residuate(state, l), rest,
                        path, max_paths, out);
      path->pop_back();
    }
  }
}

}  // namespace

std::vector<Trace> EnumeratePaths(Residuator* residuator, const Expr* d,
                                  size_t max_paths) {
  std::vector<Trace> out;
  const Expr* initial = residuator->NormalForm(d);
  std::set<SymbolId> symbol_set = MentionedSymbols(initial);
  std::vector<SymbolId> symbols(symbol_set.begin(), symbol_set.end());
  Trace path;
  EnumeratePathsRec(residuator, initial, symbols, &path, max_paths, &out);
  return out;
}

}  // namespace cdes
