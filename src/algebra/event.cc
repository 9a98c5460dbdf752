#include "algebra/event.h"

#include "common/strings.h"

namespace cdes {

SymbolId Alphabet::Intern(std::string_view name) {
  CDES_CHECK(!name.empty()) << "symbol names must be non-empty";
  CDES_CHECK_NE(name.front(), '~') << "'~' is reserved for complements";
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  SymbolId id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

SymbolId Alphabet::Find(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? kInvalidSymbol : it->second;
}

std::string Alphabet::LiteralName(EventLiteral lit) const {
  CDES_CHECK(lit.valid());
  if (lit.complemented()) return StrCat("~", Name(lit.symbol()));
  return Name(lit.symbol());
}

void Alphabet::AppendLiteralName(EventLiteral lit, std::string* out) const {
  CDES_CHECK(lit.valid());
  if (lit.complemented()) out->push_back('~');
  out->append(Name(lit.symbol()));
}

EventLiteral Alphabet::InternLiteral(std::string_view text) {
  bool complemented = !text.empty() && text.front() == '~';
  if (complemented) text.remove_prefix(1);
  return EventLiteral(Intern(text), complemented);
}

Result<EventLiteral> Alphabet::ParseLiteral(std::string_view text) const {
  bool complemented = !text.empty() && text.front() == '~';
  if (complemented) text.remove_prefix(1);
  SymbolId id = Find(text);
  if (id == kInvalidSymbol) {
    return Status::NotFound(StrCat("unknown event symbol: ", text));
  }
  return EventLiteral(id, complemented);
}

}  // namespace cdes
