#ifndef CDES_COMMON_STRINGS_H_
#define CDES_COMMON_STRINGS_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace cdes {

/// Joins the elements of `parts` (stream-printable) with `sep`.
template <typename Container>
std::string StrJoin(const Container& parts, std::string_view sep) {
  std::ostringstream out;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out << sep;
    first = false;
    out << p;
  }
  return out.str();
}

/// Concatenates stream-printable arguments into a string.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream out;
  static_cast<void>((out << ... << args));
  return out.str();
}

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Parses a non-empty run of ASCII digits into `*out`; false (`*out`
/// untouched) on anything else, including values above UINT64_MAX.
bool ParseU64(std::string_view text, uint64_t* out);

/// The deepest parenthesis nesting the recursive-descent text parsers (spec
/// language, checkpoint s-expressions) accept, so untrusted input gets a
/// Status before it can exhaust the stack (under ASan with 8 MB, the
/// template-spec path overflowed at ~900 levels, the others at 1,500+).
inline constexpr int kMaxNestingDepth = 256;

}  // namespace cdes

#endif  // CDES_COMMON_STRINGS_H_
