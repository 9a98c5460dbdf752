#include "temporal/guard_semantics.h"

#include <algorithm>

namespace cdes {

bool HoldsAtExpr(const Trace& u, size_t index, const Expr* e) {
  CDES_DCHECK(index <= u.size());
  Trace prefix(u.begin(), u.begin() + index);
  return Satisfies(prefix, e);
}

bool HoldsAt(const Trace& u, size_t index, const Guard* g) {
  CDES_DCHECK(index <= u.size());
  switch (g->kind()) {
    case GuardKind::kFalse:
      return false;
    case GuardKind::kTrue:
      return true;
    case GuardKind::kBox: {
      for (size_t j = 0; j < index; ++j) {
        if (u[j] == g->literal()) return true;
      }
      return false;
    }
    case GuardKind::kNeg: {
      for (size_t j = 0; j < index; ++j) {
        if (u[j] == g->literal()) return false;
      }
      return true;
    }
    case GuardKind::kDiamond:
      // Satisfaction of an event expression only grows along the trace, so
      // "eventually" collapses to satisfaction by the full maximal trace.
      return Satisfies(u, g->expr());
    case GuardKind::kAnd:
      return std::all_of(g->children().begin(), g->children().end(),
                         [&](const Guard* c) { return HoldsAt(u, index, c); });
    case GuardKind::kOr:
      return std::any_of(g->children().begin(), g->children().end(),
                         [&](const Guard* c) { return HoldsAt(u, index, c); });
  }
  return false;
}

GuardTruthTable::GuardTruthTable(const std::set<SymbolId>& symbols)
    : symbol_count_(symbols.size()),
      traces_(EnumerateMaximalTraces(symbols.size())) {
  // The traces come over a dense re-indexing of `symbols`; map them back
  // to the caller's symbol ids in place.
  std::vector<SymbolId> ordered(symbols.begin(), symbols.end());
  for (Trace& u : traces_) {
    for (EventLiteral& l : u) {
      l = EventLiteral(ordered[l.symbol()], l.complemented());
    }
  }
  all_.assign((point_count() + 63) / 64, 0);
  SetPoints(&all_, 0, point_count());
}

void GuardTruthTable::SetPoints(Vector* v, size_t begin, size_t end) {
  for (size_t p = begin; p < end; ++p) {
    (*v)[p / 64] |= uint64_t{1} << (p % 64);
  }
}

const GuardTruthTable::Vector& GuardTruthTable::Truth(const Guard* g) {
  auto it = memo_.find(g);
  if (it != memo_.end()) return it->second;
  const size_t width = points_per_trace();
  Vector v(all_.size(), 0);
  switch (g->kind()) {
    case GuardKind::kFalse:
      break;
    case GuardKind::kTrue:
      v = all_;
      break;
    case GuardKind::kBox:
    case GuardKind::kNeg:
      // With ℓ at position j of trace t (j = k when ℓ is absent), □ℓ holds
      // at indices j+1..k and ¬ℓ, its complement, at 0..j.
      for (size_t t = 0; t < traces_.size(); ++t) {
        const Trace& u = traces_[t];
        const size_t j =
            std::find(u.begin(), u.end(), g->literal()) - u.begin();
        const size_t first = t * width;
        if (g->kind() == GuardKind::kBox) {
          SetPoints(&v, first + j + 1, first + width);
        } else {
          SetPoints(&v, first, first + j + 1);
        }
      }
      break;
    case GuardKind::kDiamond:
      for (size_t t = 0; t < traces_.size(); ++t) {
        if (Satisfies(traces_[t], g->expr())) {
          SetPoints(&v, t * width, (t + 1) * width);
        }
      }
      break;
    case GuardKind::kAnd:
      v = all_;
      for (const Guard* c : g->children()) {
        const Vector& cv = Truth(c);
        for (size_t w = 0; w < v.size(); ++w) v[w] &= cv[w];
      }
      break;
    case GuardKind::kOr:
      for (const Guard* c : g->children()) {
        const Vector& cv = Truth(c);
        for (size_t w = 0; w < v.size(); ++w) v[w] |= cv[w];
      }
      break;
  }
  return memo_.emplace(g, std::move(v)).first->second;
}

bool GuardEquivalent(const Guard* a, const Guard* b) {
  std::set<SymbolId> symbols = GuardSymbols(a);
  std::set<SymbolId> symbols_b = GuardSymbols(b);
  symbols.insert(symbols_b.begin(), symbols_b.end());
  GuardTruthTable table(symbols);
  return table.Truth(a) == table.Truth(b);
}

}  // namespace cdes
