#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace fairswap {
namespace {

TEST(Summarize, EmptyInputAllZero) {
  const Summary s = summarize(std::span<const double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.max, 0.0);
}

TEST(Summarize, SingleValue) {
  const std::vector<double> v{7.5};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
  EXPECT_DOUBLE_EQ(s.median, 7.5);
  EXPECT_DOUBLE_EQ(s.min, 7.5);
  EXPECT_DOUBLE_EQ(s.max, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Summarize, KnownSample) {
  const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.variance, 4.0);  // classic population-variance example
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Summarize, MedianOfEvenCountInterpolates) {
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(summarize(v).median, 2.5);
}

TEST(Summarize, IntegerOverload) {
  const std::vector<std::uint64_t> v{1, 2, 3};
  EXPECT_DOUBLE_EQ(summarize(std::span<const std::uint64_t>(v)).mean, 2.0);
}

TEST(PercentileSorted, EndpointsAndMiddle) {
  const std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.25), 20.0);
}

TEST(PercentileSorted, InterpolatesBetweenObservations) {
  const std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.75), 7.5);
}

TEST(PercentileSorted, ClampsOutOfRangeQuantiles) {
  const std::vector<double> v{1, 2, 3};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 2.0), 3.0);
}

TEST(RunningStats, MatchesBatchSummary) {
  Rng rng(5);
  std::vector<double> v(1000);
  RunningStats rs;
  for (auto& x : v) {
    x = rng.uniform(-10.0, 10.0);
    rs.add(x);
  }
  const Summary s = summarize(v);
  EXPECT_EQ(rs.count(), s.count);
  EXPECT_NEAR(rs.mean(), s.mean, 1e-9);
  EXPECT_NEAR(rs.variance(), s.variance, 1e-9);
  EXPECT_DOUBLE_EQ(rs.min(), s.min);
  EXPECT_DOUBLE_EQ(rs.max(), s.max);
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.variance(), 0.0);
}

TEST(RunningStats, MergeEquivalentToSequentialAdd) {
  Rng rng(9);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    whole.add(x);
    (i < 250 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 1.5);

  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(MeanPmStd, FormatsMeanAndDeviation) {
  RunningStats s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_EQ(mean_pm_std(s, 1), "2.0 ± 1.0");
}

}  // namespace
}  // namespace fairswap
