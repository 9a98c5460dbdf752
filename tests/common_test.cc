#include <gtest/gtest.h>

#include <set>
#include <string>
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

TEST(StringsTest, StrSplit) {
  EXPECT_EQ(StrSplit("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
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
