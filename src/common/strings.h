#ifndef CDES_COMMON_STRINGS_H_
#define CDES_COMMON_STRINGS_H_

#include <charconv>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

namespace cdes {

// Formatting contract of StrCat, StrAppend and StrJoin: each argument is
// rendered byte for byte as a default-flag std::ostream would render it —
// integers in decimal, bool as 0/1, char / signed char / unsigned char as
// the byte itself, float and double as printf's %.6g (so 0.1, 1e-05, inf,
// nan, -0), unscoped enums as their underlying value, strings verbatim.
// Every piece is sized first and the result is allocated once; only
// arguments of other types, which bring their own operator<< (Status), are
// still rendered through a stream. A null `const char*` renders as nothing.

namespace strings_internal {

template <typename T>
inline constexpr bool kIsChar = std::is_same_v<T, char> ||
                                std::is_same_v<T, signed char> ||
                                std::is_same_v<T, unsigned char>;

template <typename T, bool = std::is_enum_v<T>>
inline constexpr bool kIsUnscopedEnum = false;
template <typename T>
inline constexpr bool kIsUnscopedEnum<T, true> =
    std::is_convertible_v<T, std::underlying_type_t<T>>;

/// One argument rendered to text: a view of the caller's bytes, of the
/// inline digit buffer, or of the stream-rendered fallback. Views point
/// into the piece itself, so pieces are neither copied nor moved.
class Piece {
 public:
  template <typename T>
  Piece(const T& value) {  // NOLINT(google-explicit-constructor)
    Render(value);
  }
  Piece(const Piece&) = delete;
  Piece& operator=(const Piece&) = delete;

  std::string_view view() const { return view_; }

 private:
  template <typename T>
  void Render(const T& value) {
    using U = std::remove_cv_t<T>;
    if constexpr (std::is_same_v<U, std::string> ||
                  std::is_same_v<U, std::string_view>) {
      view_ = value;
    } else if constexpr (std::is_same_v<U, const char*> ||
                         std::is_same_v<U, char*>) {
      if (value != nullptr) view_ = value;
    } else if constexpr (std::is_array_v<U> &&
                         std::is_same_v<std::remove_cv_t<
                                            std::remove_extent_t<U>>,
                                        char>) {
      view_ = std::string_view(value);  // up to the NUL, as a stream stops
    } else if constexpr (std::is_same_v<U, bool>) {
      buf_[0] = value ? '1' : '0';
      view_ = std::string_view(buf_, 1);
    } else if constexpr (kIsChar<U>) {
      buf_[0] = static_cast<char>(value);
      view_ = std::string_view(buf_, 1);
    } else if constexpr (std::is_integral_v<U>) {
      char* end = std::to_chars(buf_, buf_ + sizeof(buf_), value).ptr;
      view_ = std::string_view(buf_, static_cast<size_t>(end - buf_));
    } else if constexpr (std::is_floating_point_v<U>) {
      char* end = std::to_chars(buf_, buf_ + sizeof(buf_), value,
                                std::chars_format::general, 6)
                      .ptr;
      view_ = std::string_view(buf_, static_cast<size_t>(end - buf_));
    } else if constexpr (kIsUnscopedEnum<U>) {
      // Unscoped: a stream picks the overload of the underlying type.
      Render(static_cast<std::underlying_type_t<U>>(value));
    } else {
      std::ostringstream out;
      out << value;
      owned_ = std::move(out).str();
      view_ = owned_;
    }
  }

  std::string_view view_;
  char buf_[32];  // the widest rendering: "-1.23457e+4932", or 20 digits
  std::string owned_;
};

/// Copies `text` to `dst`; returns one past its end.
inline char* CopyTo(std::string_view text, char* dst) {
  if (!text.empty()) std::memcpy(dst, text.data(), text.size());
  return dst + text.size();
}

}  // namespace strings_internal

/// Appends the arguments, rendered per the contract above, to `*out`; no
/// argument may view `*out` itself.
template <typename... Args>
void StrAppend(std::string* out, const Args&... args) {
  if constexpr (sizeof...(Args) > 0) {
    const strings_internal::Piece pieces[] = {args...};
    size_t total = out->size();
    for (const strings_internal::Piece& p : pieces) total += p.view().size();
    out->reserve(total);
    for (const strings_internal::Piece& p : pieces) out->append(p.view());
  }
}

/// Concatenates the arguments, rendered per the contract above.
template <typename... Args>
std::string StrCat(const Args&... args) {
  if constexpr (sizeof...(Args) == 0) {
    return std::string();
  } else {
    const strings_internal::Piece pieces[] = {args...};
    size_t total = 0;
    for (const strings_internal::Piece& p : pieces) total += p.view().size();
    std::string out(total, '\0');  // exact capacity, unlike reserve()
    char* dst = out.data();
    for (const strings_internal::Piece& p : pieces) {
      dst = strings_internal::CopyTo(p.view(), dst);
    }
    return out;
  }
}

/// Joins the elements of `parts`, rendered per the contract above, with
/// `sep`.
template <typename Container>
std::string StrJoin(const Container& parts, std::string_view sep) {
  size_t total = 0;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) total += sep.size();
    first = false;
    total += strings_internal::Piece(p).view().size();
  }
  std::string out(total, '\0');
  char* dst = out.data();
  first = true;
  for (const auto& p : parts) {
    if (!first) dst = strings_internal::CopyTo(sep, dst);
    first = false;
    dst = strings_internal::CopyTo(strings_internal::Piece(p).view(), dst);
  }
  return out;
}

/// Walks the `sep`-separated fields of `text` as views, without copying.
/// Empty fields count: an empty text is one empty field, and a trailing
/// `sep` ends in one more.
class SplitCursor {
 public:
  SplitCursor(std::string_view text, char sep) : rest_(text), sep_(sep) {}

  /// Stores the next field in `*field`; false once every field was taken.
  bool Next(std::string_view* field) {
    if (done_) return false;
    size_t pos = rest_.find(sep_);
    if (pos == std::string_view::npos) {
      *field = rest_;
      done_ = true;
    } else {
      *field = rest_.substr(0, pos);
      rest_.remove_prefix(pos + 1);
    }
    ++count_;
    return true;
  }

  /// True once the last field was taken.
  bool AtEnd() const { return done_; }
  /// Fields taken so far.
  size_t count() const { return count_; }

 private:
  std::string_view rest_;
  char sep_;
  size_t count_ = 0;
  bool done_ = false;
};

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
