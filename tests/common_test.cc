#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace cdes {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad expression");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad expression");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad expression");
}

TEST(StatusTest, EveryCodeHasName) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kOutOfRange, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kResourceExhausted,
        StatusCode::kAborted}) {
    EXPECT_FALSE(StatusCodeToString(c).empty());
    EXPECT_NE(StatusCodeToString(c), "Unknown");
  }
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, OkStatusDegradesToInternalError) {
  Result<int> r = Status::OK();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoubledPositive(int x) {
  CDES_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

Status CheckPositive(int x) {
  CDES_RETURN_IF_ERROR(ParsePositive(x).status());
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> good = DoubledPositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);

  Result<int> bad = DoubledPositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(CheckPositive(3).ok());
  EXPECT_EQ(CheckPositive(0).code(), StatusCode::kInvalidArgument);
}

TEST(StringsTest, StrJoin) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(StrJoin(parts, ", "), "a, b, c");
  EXPECT_EQ(StrJoin(std::vector<std::string>{}, ","), "");
  EXPECT_EQ(StrJoin(std::vector<int>{1, 2, 3}, "+"), "1+2+3");
}

TEST(StringsTest, StrCat) {
  EXPECT_EQ(StrCat("x=", 3, ", y=", 4.5), "x=3, y=4.5");
  EXPECT_EQ(StrCat(), "");
}

// ---- StrCat / StrAppend / StrJoin against the stream they replaced: each
// ---- argument kind src/ formats must render byte for byte as a
// ---- default-flag std::ostringstream does.

template <typename... Args>
std::string StreamCat(const Args&... args) {
  std::ostringstream out;
  static_cast<void>((out << ... << args));
  return out.str();
}

template <typename Container>
std::string StreamJoin(const Container& parts, std::string_view sep) {
  std::ostringstream out;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out << sep;
    first = false;
    out << p;
  }
  return out.str();
}

/// Checks every value of `table` alone, between literals, appended, and
/// the whole table joined.
template <typename T>
void ExpectRendersLikeStream(const std::vector<T>& table) {
  for (const T& v : table) {
    EXPECT_EQ(StrCat(v), StreamCat(v)) << StreamCat(v);
    EXPECT_EQ(StrCat("<", v, "|", v, ">"), StreamCat("<", v, "|", v, ">"));
    std::string appended = "prefix ";
    StrAppend(&appended, v, ' ', v);
    EXPECT_EQ(appended, StreamCat("prefix ", v, ' ', v));
  }
  EXPECT_EQ(StrJoin(table, ", "), StreamJoin(table, ", "));
}

template <typename T>
void ExpectIntegerWidthRendersLikeStream() {
  using Limits = std::numeric_limits<T>;
  std::vector<T> table = {Limits::min(), Limits::max(), T(0), T(1), T(9),
                          T(10), T(Limits::max() / 3), T(Limits::min() / 7)};
  if constexpr (Limits::is_signed) {
    table.push_back(T(-1));
    table.push_back(T(-10));
    table.push_back(T(Limits::min() + 1));
  }
  ExpectRendersLikeStream(table);
}

TEST(StrCatTest, EveryIntegerWidthMatchesStream) {
  ExpectIntegerWidthRendersLikeStream<short>();
  ExpectIntegerWidthRendersLikeStream<unsigned short>();
  ExpectIntegerWidthRendersLikeStream<int>();
  ExpectIntegerWidthRendersLikeStream<unsigned>();
  ExpectIntegerWidthRendersLikeStream<long>();
  ExpectIntegerWidthRendersLikeStream<unsigned long>();
  ExpectIntegerWidthRendersLikeStream<long long>();
  ExpectIntegerWidthRendersLikeStream<unsigned long long>();
  ExpectIntegerWidthRendersLikeStream<int16_t>();
  ExpectIntegerWidthRendersLikeStream<uint32_t>();
  ExpectIntegerWidthRendersLikeStream<int64_t>();
  ExpectIntegerWidthRendersLikeStream<uint64_t>();
  ExpectIntegerWidthRendersLikeStream<size_t>();
}

TEST(StrCatTest, CharsAndBoolMatchStream) {
  // Character types print the byte itself, NUL and high bytes included;
  // int8_t and uint8_t are signed and unsigned char.
  ExpectRendersLikeStream<char>({'a', ' ', '~', '\n', '\0', '\x7f'});
  ExpectRendersLikeStream<signed char>(
      {static_cast<signed char>('b'), static_cast<signed char>(-1),
       std::numeric_limits<signed char>::min(), 0});
  ExpectRendersLikeStream<unsigned char>({'A', 0, 200, 255});
  ExpectRendersLikeStream<int8_t>({-5, 65});
  ExpectRendersLikeStream<uint8_t>({66, 250});
  ExpectRendersLikeStream<bool>({true, false});
}

TEST(StrCatTest, FloatingPointMatchesStream) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  ExpectRendersLikeStream<double>(
      {0.1, 1e-05, 1e21, -0.0, 0.0, kInf, -kInf, kNan, -kNan, 4.5, 1.0 / 3,
       123456.5, 1234567.0, 100000.0, 1e6, 0.0001, 5e-324,
       std::numeric_limits<double>::max(),
       std::numeric_limits<double>::lowest(), 35.4355, 298000.0});
  ExpectRendersLikeStream<float>(
      {0.1f, 1.5f, -0.0f, 1e-7f, 3.4e38f, std::numeric_limits<float>::max(),
       std::numeric_limits<float>::infinity()});
}

enum Plain { kPlainZero, kPlainSeven = 7, kPlainNegative = -3 };
enum Byte : unsigned char { kByteA = 'A' };

TEST(StrCatTest, StringsStatusAndEnumsMatchStream) {
  const char* literal = "const char*";
  char buffer[] = "char*";
  char* mutable_chars = buffer;
  ExpectRendersLikeStream<const char*>({literal, "", "~e"});
  ExpectRendersLikeStream<char*>({mutable_chars});
  ExpectRendersLikeStream<std::string>({"", "s_book", std::string(40, 'x')});
  ExpectRendersLikeStream<std::string_view>({"", "view", "c_buy ~x"});
  ExpectRendersLikeStream<Status>(
      {Status::OK(), Status::NotFound("unknown event symbol: q")});
  // An unscoped enum renders as its underlying value; one whose underlying
  // type is a character type renders as that character, like a stream.
  ExpectRendersLikeStream<Plain>({kPlainZero, kPlainSeven, kPlainNegative});
  ExpectRendersLikeStream<Byte>({kByteA});
  // Mixed in one call, the way log and diagnosis lines are built.
  EXPECT_EQ(StrCat("checkpoint at line ", 3, " covers ", uint64_t{7},
                   " records: ", 4.5, ' ', true, kPlainSeven, " ",
                   Status::Internal("x"), std::string_view(" v"), literal),
            StreamCat("checkpoint at line ", 3, " covers ", uint64_t{7},
                      " records: ", 4.5, ' ', true, kPlainSeven, " ",
                      Status::Internal("x"), std::string_view(" v"),
                      literal));
  EXPECT_EQ(StrCat(), "");
  std::string untouched = "same";
  StrAppend(&untouched);
  EXPECT_EQ(untouched, "same");
}

TEST(StrCatTest, StrJoinMatchesStreamOverContainers) {
  ExpectRendersLikeStream<std::string>({});
  EXPECT_EQ(StrJoin(std::set<int>{3, 1, 2}, "+"),
            StreamJoin(std::set<int>{3, 1, 2}, "+"));
  std::vector<bool> flags = {true, false, true};
  EXPECT_EQ(StrJoin(flags, ""), StreamJoin(flags, ""));
  EXPECT_EQ(StrJoin(std::vector<const char*>{"a", "b"}, " . "), "a . b");
}

/// The fields a SplitCursor walks, collected.
std::vector<std::string> SplitFields(std::string_view text, char sep) {
  std::vector<std::string> fields;
  SplitCursor cursor(text, sep);
  std::string_view field;
  while (cursor.Next(&field)) {
    fields.emplace_back(field);
    EXPECT_EQ(cursor.count(), fields.size());
  }
  EXPECT_TRUE(cursor.AtEnd());
  return fields;
}

// SplitCursor keeps empty fields: an empty text is one empty field, and a
// leading, doubled or trailing separator each add one.
TEST(StringsTest, SplitCursorKeepsEmptyFields) {
  using Fields = std::vector<std::string>;
  EXPECT_EQ(SplitFields("a,b,c", ','), (Fields{"a", "b", "c"}));
  EXPECT_EQ(SplitFields("", ','), (Fields{""}));
  EXPECT_EQ(SplitFields("a,,c", ','), (Fields{"a", "", "c"}));
  EXPECT_EQ(SplitFields(" a", ' '), (Fields{"", "a"}));
  EXPECT_EQ(SplitFields("a ", ' '), (Fields{"a", ""}));
  EXPECT_EQ(SplitFields("ckpt 1 2", ' '), (Fields{"ckpt", "1", "2"}));
  EXPECT_EQ(SplitFields("x\n", '\n'), (Fields{"x", ""}));
  EXPECT_EQ(SplitFields("\n", '\n'), (Fields{"", ""}));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
  EXPECT_EQ(StripWhitespace("a b"), "a b");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("workflow", "work"));
  EXPECT_FALSE(StartsWith("work", "workflow"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(StringsTest, ParseU64RejectsOverflowInsteadOfWrapping) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseU64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseU64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(ParseU64("000000000000000000000042", &v));
  EXPECT_EQ(v, 42u);
  // 2^64 and 2^64 + 1 used to wrap to 0 and 1.
  for (const char* bad : {"18446744073709551616", "18446744073709551617",
                          "99999999999999999999999", "", "-1", "+1", "1a",
                          " 1", "1 "}) {
    v = 7;
    EXPECT_FALSE(ParseU64(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7u) << "'" << bad << "'";
  }
}

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
  }
  // All residues eventually appear.
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

}  // namespace
}  // namespace cdes
