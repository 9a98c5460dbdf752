#include "common/strings.h"

#include <cctype>
#include <charconv>

namespace cdes {

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ParseU64(std::string_view text, uint64_t* out) {
  // from_chars takes no sign for unsigned types and reports overflow as
  // result_out_of_range instead of wrapping.
  const char* end = text.data() + text.size();
  uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace cdes
