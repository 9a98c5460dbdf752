#include "algebra/trace.h"

#include <algorithm>

#include "common/strings.h"

namespace cdes {
namespace {

bool SymbolUsed(const Trace& u, SymbolId symbol) {
  for (EventLiteral l : u) {
    if (l.symbol() == symbol) return true;
  }
  return false;
}

void EnumerateUniverseRec(const std::vector<EventLiteral>& literals,
                          Trace* current, std::vector<Trace>* out) {
  out->push_back(*current);
  for (EventLiteral l : literals) {
    if (!CanExtend(*current, l)) continue;
    current->push_back(l);
    EnumerateUniverseRec(literals, current, out);
    current->pop_back();
  }
}

void EnumerateMaximalRec(size_t symbol_count, Trace* current,
                         std::vector<Trace>* out) {
  if (current->size() == symbol_count) {
    out->push_back(*current);
    return;
  }
  for (SymbolId s = 0; s < symbol_count; ++s) {
    if (SymbolUsed(*current, s)) continue;
    for (bool complemented : {false, true}) {
      current->push_back(EventLiteral(s, complemented));
      EnumerateMaximalRec(symbol_count, current, out);
      current->pop_back();
    }
  }
}

}  // namespace

bool IsValidTrace(const Trace& u) {
  for (size_t i = 0; i < u.size(); ++i) {
    if (!u[i].valid()) return false;
    for (size_t j = i + 1; j < u.size(); ++j) {
      if (u[i].symbol() == u[j].symbol()) return false;
    }
  }
  return true;
}

bool CanExtend(const Trace& u, EventLiteral next) {
  if (!next.valid()) return false;
  return !SymbolUsed(u, next.symbol());
}

bool IsMaximalTrace(const Trace& u, size_t symbol_count) {
  if (!IsValidTrace(u)) return false;
  if (u.size() != symbol_count) return false;
  for (SymbolId s = 0; s < symbol_count; ++s) {
    if (!SymbolUsed(u, s)) return false;
  }
  return true;
}

std::string TraceToString(const Trace& u, const Alphabet& alphabet) {
  // "<", the names with their '~' marks and separating spaces, ">".
  size_t size = u.empty() ? 2 : u.size() + 1;
  for (EventLiteral l : u) {
    size += alphabet.Name(l.symbol()).size() + (l.complemented() ? 1 : 0);
  }
  std::string out;
  out.reserve(size);
  out.push_back('<');
  for (size_t i = 0; i < u.size(); ++i) {
    if (i > 0) out.push_back(' ');
    alphabet.AppendLiteralName(u[i], &out);
  }
  out.push_back('>');
  return out;
}

std::vector<Trace> EnumerateUniverse(
    const std::vector<EventLiteral>& literals) {
  std::vector<Trace> out;
  Trace current;
  EnumerateUniverseRec(literals, &current, &out);
  return out;
}

std::vector<Trace> EnumerateMaximalTraces(size_t symbol_count) {
  std::vector<Trace> out;
  Trace current;
  EnumerateMaximalRec(symbol_count, &current, &out);
  return out;
}

}  // namespace cdes
