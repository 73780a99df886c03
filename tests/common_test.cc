#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace wpred {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad k");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kNumericalError, StatusCode::kIoError,
        StatusCode::kUnimplemented}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nothing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<double> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2.0;
}

Status UseMacros(int x, double* out) {
  WPRED_ASSIGN_OR_RETURN(double half, HalveEven(x));
  *out = half;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  double out = 0.0;
  EXPECT_TRUE(UseMacros(4, &out).ok());
  EXPECT_DOUBLE_EQ(out, 2.0);
  EXPECT_FALSE(UseMacros(3, &out).ok());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, ForkIsIndependentOfParentDrawCount) {
  Rng a(7);
  Rng b(7);
  (void)a.Uniform();  // Advance parent a only.
  Rng fa = a.Fork(3);
  Rng fb = b.Fork(3);
  EXPECT_DOUBLE_EQ(fa.Uniform(), fb.Uniform());
}

TEST(RngTest, ForkDiffersByTag) {
  Rng a(7);
  EXPECT_NE(a.Fork(1).Uniform(), a.Fork(2).Uniform());
}

TEST(RngTest, UniformRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian(5.0, 2.0);
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(RngTest, ZipfSkewConcentratesOnLowRanks) {
  Rng rng(19);
  const int n = 10000;
  int low_uniform = 0, low_skewed = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.Zipf(1000, 0.0) < 10) ++low_uniform;
    if (rng.Zipf(1000, 0.99) < 10) ++low_skewed;
  }
  EXPECT_GT(low_skewed, low_uniform * 5);
}

TEST(RngTest, ZipfStaysInRange) {
  Rng rng(23);
  for (int i = 0; i < 5000; ++i) {
    const int64_t z = rng.Zipf(50, 1.2);
    EXPECT_GE(z, 0);
    EXPECT_LT(z, 50);
  }
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(29);
  const auto perm = rng.Permutation(100);
  std::vector<bool> seen(100, false);
  for (size_t p : perm) {
    ASSERT_LT(p, 100u);
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(StringUtilTest, JoinAndSplitRoundTrip) {
  std::vector<std::string> parts = {"a", "bb", "", "c"};
  EXPECT_EQ(Join(parts, ","), "a,bb,,c");
  EXPECT_EQ(Split("a,bb,,c", ','), parts);
}

TEST(StringUtilTest, ToFixed) {
  EXPECT_EQ(ToFixed(3.14159, 3), "3.142");
  EXPECT_EQ(ToFixed(2.0, 0), "2");
}

TEST(StringUtilTest, FormatCompactHandlesSpecials) {
  EXPECT_EQ(FormatCompact(std::nan("")), "nan");
  EXPECT_EQ(FormatCompact(INFINITY), "inf");
  EXPECT_EQ(FormatCompact(-INFINITY), "-inf");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%s=%d", "k", 7), "k=7");
}

TEST(StringUtilTest, StartsWithAndToLower) {
  EXPECT_TRUE(StartsWith("HistFP", "Hist"));
  EXPECT_FALSE(StartsWith("Hist", "HistFP"));
  EXPECT_EQ(ToLower("L2,1-Norm"), "l2,1-norm");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(CsvTest, RoundTripWithQuoting) {
  CsvWriter w({"a", "b"});
  w.AddRow({"plain", "has,comma"});
  w.AddRow({"has\"quote", "multi\nline"});
  const auto parsed = ParseCsv(w.ToString());
  ASSERT_TRUE(parsed.ok());
  const auto& rows = parsed.value();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1][1], "has,comma");
  EXPECT_EQ(rows[2][0], "has\"quote");
  EXPECT_EQ(rows[2][1], "multi\nline");
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsv("a,\"unterminated").ok());
}

// Environment-knob parser (WPRED_THREADS). It is strict: a value either
// parses exactly or is rejected with a warning — never silently
// reinterpreted. The deeper boundary/behaviour suites live in
// parallel_test.cc; this pins the parser contract itself.

TEST(EnvKnobTest, ThreadsParserIsStrict) {
  using parallel_internal::ParseThreadsEnv;
  EXPECT_EQ(ParseThreadsEnv("4").threads, 4);
  EXPECT_FALSE(ParseThreadsEnv("4").rejected);
  // Non-digit-leading input — whitespace, '+', hex — is rejected, not
  // strtol-massaged into a number.
  for (const char* bad : {" 4", "+4", "0x4", "four", ""}) {
    EXPECT_TRUE(ParseThreadsEnv(bad).rejected) << "value: \"" << bad << "\"";
  }
}

}  // namespace
}  // namespace wpred
