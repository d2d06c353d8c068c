#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/csv.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace dance::util;

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, RandintWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.randint(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(2);
  const auto p = rng.permutation(50);
  std::vector<bool> seen(50, false);
  for (int v : p) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 50);
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = true;
  }
}

TEST(Rng, CategoricalRespectsZeroWeights) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.categorical({0.0F, 1.0F, 0.0F}), 1);
  }
}

TEST(Rng, CategoricalDegenerateWeights) {
  // Regression: std::discrete_distribution leaves empty and all-zero weight
  // vectors implementation-defined. The contract is now explicit: empty
  // throws, all-zero falls back to a uniform in-range draw.
  Rng rng(3);
  EXPECT_THROW((void)rng.categorical({}), std::invalid_argument);
  std::vector<int> seen(3, 0);
  for (int i = 0; i < 300; ++i) {
    const int idx = rng.categorical({0.0F, 0.0F, 0.0F});
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, 3);
    ++seen[static_cast<std::size_t>(idx)];
  }
  for (int i = 0; i < 3; ++i) EXPECT_GT(seen[static_cast<std::size_t>(i)], 0);
}

TEST(Rng, GumbelSamplesAreFinite) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(std::isfinite(rng.gumbel()));
  }
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), 1.2909944, 1e-6);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{5.0}), 0.0);
}

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  // Unsorted on purpose: percentile sorts a copy.
  const std::vector<double> xs = {40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);   // midpoint of 20 and 30
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 17.5);   // rank 0.75 between 10, 20
  EXPECT_DOUBLE_EQ(percentile(xs, 95.0), 38.5);   // rank 2.85 between 30, 40
}

TEST(Stats, PercentileEdgeCases) {
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{7.0}, 100.0), 7.0);
  // Out-of-range p clamps instead of reading out of bounds.
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, -10.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 250.0), 2.0);
}

TEST(Stats, PercentileIgnoresNonFiniteSamples) {
  // Regression: NaN samples used to reach std::sort, whose ordering (and
  // therefore every percentile) is undefined with unordered elements — the
  // reported p50/p95 depended on the seed-dependent position of the NaNs.
  // Non-finite samples are now dropped before sorting.
  std::vector<double> xs;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 64; ++i) xs.push_back(nan);  // enough to derail sort
  xs.push_back(2.0);
  xs.insert(xs.begin(), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 1.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 2.0);

  const std::vector<double> with_inf = {
      3.0, std::numeric_limits<double>::infinity(), 1.0,
      -std::numeric_limits<double>::infinity(), 2.0};
  EXPECT_DOUBLE_EQ(percentile(with_inf, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(with_inf, 100.0), 3.0);
}

TEST(Stats, PercentileAllNonFiniteReturnsZero) {
  const std::vector<double> xs = {std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity()};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 0.0);
}

TEST(Stats, MeanRelativeError) {
  const std::vector<double> pred = {110.0, 90.0};
  const std::vector<double> truth = {100.0, 100.0};
  EXPECT_NEAR(mean_relative_error(pred, truth), 0.1, 1e-12);
}

TEST(Stats, RegressionAccuracyClamped) {
  const std::vector<double> pred = {300.0};
  const std::vector<double> truth = {100.0};
  EXPECT_DOUBLE_EQ(regression_accuracy_pct(pred, truth), 0.0);  // 200% error
  EXPECT_DOUBLE_EQ(regression_accuracy_pct(truth, truth), 100.0);
}

TEST(Stats, ClassificationAccuracy) {
  const std::vector<int> pred = {1, 2, 3, 4};
  const std::vector<int> truth = {1, 2, 0, 4};
  EXPECT_DOUBLE_EQ(classification_accuracy_pct(pred, truth), 75.0);
}

TEST(Stats, SizeMismatchThrows) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(mean_relative_error(a, b), std::invalid_argument);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.50"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| longer"), std::string::npos);
  EXPECT_NE(s.find("|----"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "/tmp/dance_test_csv.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.add_row({"1", "2"});
    w.flush();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::filesystem::remove(path);
}

TEST(Hash, Fnv1aKnownAnswers) {
  const auto hash = [](std::string_view s, std::uint64_t basis) {
    return fnv1a(s.data(), s.size(), basis);
  };
  // The published 64-bit FNV-1a test vectors.
  EXPECT_EQ(hash("", kFnv1aBasis), 0xcbf29ce484222325ULL);
  EXPECT_EQ(hash("a", kFnv1aBasis), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(hash("foobar", kFnv1aBasis), 0x85944171f73967e8ULL);
  EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ULL);  // default basis
  // The stored-artifact basis: the same recurrence from another start.
  EXPECT_EQ(hash("", kFnv1aStoredBasis), 0x14650fb0739d0383ULL);
  EXPECT_EQ(hash("a", kFnv1aStoredBasis), 0x44bd8ad473cd9906ULL);
  EXPECT_EQ(hash("foobar", kFnv1aStoredBasis), 0x88fad7c0a8ff07f2ULL);
  // Hashing piecewise continues from the previous result.
  EXPECT_EQ(hash("bar", hash("foo", kFnv1aBasis)),
            hash("foobar", kFnv1aBasis));
}

TEST(Parallel, CoversWholeRangeOnce) {
  std::vector<std::atomic<int>> hits(1000);
  dance::util::parallel_for(0, 1000, [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  dance::util::parallel_for(5, 5, [&](long, long) { called = true; });
  EXPECT_FALSE(called);
}

}  // namespace
