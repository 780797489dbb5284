#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "util/csv_writer.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table_printer.h"

namespace anonsafe {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsCarryCodeAndMessage) {
  Status st = Status::InvalidArgument("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad input");

  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_NE(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_NE(Status::NotFound("a"), Status::IOError("a"));
}

TEST(StatusTest, StreamOperatorMatchesToString) {
  std::ostringstream oss;
  oss << Status::IOError("disk on fire");
  EXPECT_EQ(oss.str(), "IOError: disk on fire");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chained(int x) {
  ANONSAFE_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  EXPECT_TRUE(Chained(1).ok());
  EXPECT_TRUE(Chained(-1).IsInvalidArgument());
}

// ---------------------------------------------------------------- Result

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_EQ(r.value_or(-1), 5);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-5);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfRange());
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> DoubledOrFail(int x) {
  ANONSAFE_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> ok = DoubledOrFail(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_TRUE(DoubledOrFail(0).status().IsOutOfRange());
}

TEST(ResultTest, ResultFromOkStatusBecomesInternalError) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, Deterministic) {
  Rng a(123), b(123), c(124);
  bool differs_from_c = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) differs_from_c = true;
  }
  EXPECT_TRUE(differs_from_c);
}

TEST(RngTest, UniformUint64StaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformUint64(17), 17u);
  }
}

TEST(RngTest, UniformUint64HitsAllResidues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformUint64(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliApproximatesP) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.Normal(2.0, 3.0));
  EXPECT_NEAR(Mean(xs), 2.0, 0.1);
  EXPECT_NEAR(SampleStdDev(xs), 3.0, 0.1);
}

TEST(RngTest, PoissonMeanSmallAndLargeLambda) {
  Rng rng(19);
  for (double lambda : {2.5, 100.0}) {
    double sum = 0.0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
      sum += static_cast<double>(rng.Poisson(lambda));
    }
    EXPECT_NEAR(sum / trials, lambda, lambda * 0.05 + 0.1);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  double sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / trials, 0.25, 0.02);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(29);
  std::vector<size_t> p = rng.Permutation(100);
  std::vector<size_t> sorted = p;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, SampleWithoutReplacementDistinctSortedInRange) {
  Rng rng(31);
  for (size_t k : {0u, 1u, 5u, 50u, 100u}) {
    std::vector<size_t> s = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(s.size(), k);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());
    for (size_t v : s) EXPECT_LT(v, 100u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(37);
  std::vector<size_t> s = rng.SampleWithoutReplacement(10, 10);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(RngTest, SampleWithoutReplacementUnbiasedish) {
  // Every element should be picked with probability k/n.
  Rng rng(41);
  const size_t n = 20, k = 5;
  std::vector<int> counts(n, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (size_t v : rng.SampleWithoutReplacement(n, k)) counts[v]++;
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / trials, 0.25, 0.03)
        << "element " << i;
  }
}

TEST(RngTest, SampleWithoutReplacementGoldenStream) {
  // Pinned outputs of both branches (dense: k * 3 >= n shuffles a full
  // index vector; sparse: Floyd's algorithm) and the next raw draw after
  // each call, so any change to the stream or its consumption shows.
  struct Golden {
    uint64_t seed;
    size_t n, k;
    std::vector<size_t> picks;
    uint64_t next;
  };
  const std::vector<Golden> goldens = {
      {3, 20, 7, {1, 2, 7, 10, 15, 16, 18}, 0x9791eac69a6614c2ULL},  // dense
      {3, 20, 6, {1, 3, 4, 11, 12, 14}, 0x2e20ac6082308439ULL},      // sparse
      {11, 1000, 5, {58, 208, 450, 741, 808}, 0xb6934fab6ceacaa0ULL},
      {5, 9, 9, {0, 1, 2, 3, 4, 5, 6, 7, 8}, 0xe209a3aabc8bcc7aULL},
  };
  for (const Golden& g : goldens) {
    Rng rng(g.seed);
    EXPECT_EQ(rng.SampleWithoutReplacement(g.n, g.k), g.picks)
        << "seed " << g.seed << " n " << g.n << " k " << g.k;
    EXPECT_EQ(rng.Next(), g.next) << "seed " << g.seed << " k " << g.k;

    // SampleMask is the same draw: same set, same stream position.
    Rng masked(g.seed);
    const std::vector<uint8_t> mask = masked.SampleMask(g.n, g.k);
    std::vector<size_t> from_mask;
    for (size_t i = 0; i < mask.size(); ++i) {
      if (mask[i] != 0) from_mask.push_back(i);
    }
    EXPECT_EQ(mask.size(), g.n);
    EXPECT_EQ(from_mask, g.picks);
    EXPECT_EQ(masked.Next(), g.next);
  }
}

TEST(RngTest, UniformUint64MatchesEagerThreshold) {
  // Reference: the rejection threshold (2^64 mod bound) computed before
  // every draw. The generator computes it only for draws below `bound`;
  // values and stream consumption must not change. Bounds above 2^63
  // reject up to half of all draws, so the loop really iterates.
  auto eager = [](Rng* rng, uint64_t bound) {
    const uint64_t threshold = (-bound) % bound;
    for (;;) {
      const uint64_t r = rng->Next();
      if (r >= threshold) return r % bound;
    }
  };
  const uint64_t kTop = uint64_t{1} << 63;
  const std::vector<uint64_t> bounds = {
      1, 2, 3, 7, 64, 1000, uint64_t{1} << 32, (uint64_t{1} << 32) + 1,
      kTop - 1, kTop, kTop + 1, kTop + (kTop >> 1),
      std::numeric_limits<uint64_t>::max()};
  Rng fast(2005), reference(2005);
  for (int round = 0; round < 200; ++round) {
    for (uint64_t bound : bounds) {
      ASSERT_EQ(fast.UniformUint64(bound), eager(&reference, bound))
          << "bound " << bound << " round " << round;
    }
  }
  EXPECT_EQ(fast.Next(), reference.Next());
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(43);
  Rng b = a.Fork();
  bool differs = false;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

// ----------------------------------------------------------------- Stats

TEST(StatsTest, EmptySample) {
  std::vector<double> xs;
  EXPECT_EQ(Mean(xs), 0.0);
  EXPECT_EQ(Median(xs), 0.0);
  EXPECT_EQ(SampleStdDev(xs), 0.0);
  EXPECT_EQ(Min(xs), 0.0);
  EXPECT_EQ(Max(xs), 0.0);
  EXPECT_EQ(Percentile(xs, 0.5), 0.0);
  EXPECT_EQ(Summarize(xs).count, 0u);
}

TEST(StatsTest, MeanMedianOddEven) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({5}), 5.0);
}

TEST(StatsTest, StdDevKnownValue) {
  // Sample stddev of {2, 4, 4, 4, 5, 5, 7, 9} is sqrt(32/7).
  EXPECT_NEAR(SampleStdDev({2, 4, 4, 4, 5, 5, 7, 9}), std::sqrt(32.0 / 7.0),
              1e-12);
  EXPECT_EQ(SampleStdDev({42.0}), 0.0);
}

TEST(StatsTest, MinMaxPercentile) {
  std::vector<double> xs = {10, 0, 5, 2.5, 7.5};
  EXPECT_DOUBLE_EQ(Min(xs), 0.0);
  EXPECT_DOUBLE_EQ(Max(xs), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.25), 2.5);
}

TEST(StatsTest, PercentileEdgeCases) {
  // Empty and single-element inputs.
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 1.0), 7.0);
  // Out-of-range quantiles clamp to the extremes.
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0}, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0}, 1.5), 3.0);
  // A NaN quantile degrades to the minimum instead of corrupting the
  // interpolation index.
  EXPECT_DOUBLE_EQ(
      Percentile({1.0, 2.0, 3.0}, std::numeric_limits<double>::quiet_NaN()),
      1.0);
  // Two elements interpolate linearly.
  EXPECT_DOUBLE_EQ(Percentile({10.0, 20.0}, 0.25), 12.5);
  // Unsorted input is sorted internally.
  EXPECT_DOUBLE_EQ(Percentile({3.0, 1.0, 2.0}, 1.0), 3.0);
}

TEST(StatsTest, SummarizeAllFields) {
  Summary s = Summarize({1, 2, 3});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.stddev, 1.0);
}

// ---------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, AlignsAndRenders) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1.5"});
  t.AddRow({"beta", "22"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("| name  |"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  // Numeric cells are right-aligned: "22" should be preceded by spaces.
  EXPECT_NE(s.find("|    22 |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"only"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("only"), std::string::npos);
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(static_cast<int64_t>(-7)), "-7");
  EXPECT_EQ(TablePrinter::Fmt(static_cast<size_t>(42)), "42");
  EXPECT_EQ(TablePrinter::FmtG(0.000123, 3), "0.000123");
}

// ------------------------------------------------------------- CsvWriter

TEST(CsvWriterTest, RendersHeaderAndRows) {
  CsvWriter w({"x", "y"});
  w.AddRow({"1", "2"});
  w.AddRow({"3", "4"});
  EXPECT_EQ(w.ToString(), "x,y\n1,2\n3,4\n");
}

TEST(CsvWriterTest, EscapesSpecialCharacters) {
  CsvWriter w({"v"});
  w.AddRow({"has,comma"});
  w.AddRow({"has\"quote"});
  w.AddRow({"has\nnewline"});
  std::string s = w.ToString();
  EXPECT_NE(s.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(s.find("\"has\"\"quote\""), std::string::npos);
  EXPECT_NE(s.find("\"has\nnewline\""), std::string::npos);
}

TEST(CsvWriterTest, EscapesCarriageReturn) {
  CsvWriter w({"v"});
  w.AddRow({"has\rreturn"});
  EXPECT_EQ(w.ToString(), "v\n\"has\rreturn\"\n");
}

TEST(CsvWriterTest, HeaderCellsAreEscapedToo) {
  CsvWriter w({"plain", "with,comma"});
  EXPECT_EQ(w.ToString(), "plain,\"with,comma\"\n");
}

TEST(CsvWriterTest, PadsShortAndDropsExtraCells) {
  CsvWriter w({"a", "b"});
  w.AddRow({"1"});
  w.AddRow({"1", "2", "3"});  // extra cell beyond the header is dropped
  EXPECT_EQ(w.ToString(), "a,b\n1,\n1,2\n");
}

TEST(CsvWriterTest, WriteFileRoundTrip) {
  CsvWriter w({"k", "v"});
  w.AddRow({"quoted", "x,y"});
  w.AddRow({"multi", "line\nvalue"});
  const std::string path = testing::TempDir() + "/util_csv_roundtrip.csv";
  ASSERT_TRUE(w.WriteFile(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), w.ToString());
}

TEST(CsvWriterTest, WriteFileFailsOnBadPath) {
  CsvWriter w({"v"});
  EXPECT_TRUE(w.WriteFile("/nonexistent_dir_xyz/file.csv").IsIOError());
}

}  // namespace
}  // namespace anonsafe
