#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

namespace fairswap {
namespace {

TEST(SplitMix64, KnownFirstOutputsForSeedZero) {
  // Reference values from the SplitMix64 reference implementation.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowZeroReturnsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all of {3,4,5,6,7} observed
}

TEST(Rng, UniformIntHandlesNegativeRange) {
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.uniform_int(-5, -1);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, -1);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(11);
  EXPECT_EQ(rng.uniform_int(9, 9), 9);
}

TEST(Rng, Uniform01InHalfOpenUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-0.5));
  EXPECT_TRUE(rng.chance(1.5));
}

TEST(Rng, ChanceFrequencyMatchesProbability) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  const auto sample = rng.sample_without_replacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(Rng, SampleWithoutReplacementCappedAtPopulation) {
  Rng rng(31);
  const auto sample = rng.sample_without_replacement(5, 50);
  EXPECT_EQ(sample.size(), 5u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, SampleWithoutReplacementIsUnbiasedish) {
  // Every index should be picked roughly count/n of the time.
  std::vector<int> hits(10, 0);
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    Rng rng(seed);
    for (std::size_t i : rng.sample_without_replacement(10, 3)) {
      ++hits[i];
    }
  }
  for (int h : hits) {
    EXPECT_NEAR(h, 600, 100);  // 2000 * 3/10
  }
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(99);
  Rng a = parent.split(0);
  Rng b = parent.split(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitIsDeterministic) {
  Rng p1(99);
  Rng p2(99);
  Rng a = p1.split(5);
  Rng b = p2.split(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(ZipfSampler, AlphaZeroIsUniform) {
  ZipfSampler zipf(10, 0.0);
  Rng rng(3);
  std::vector<int> hits(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++hits[zipf.sample(rng)];
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / n, 0.1, 0.02);
  }
}

TEST(ZipfSampler, PositiveAlphaFavorsLowRanks) {
  ZipfSampler zipf(100, 1.2);
  Rng rng(5);
  std::vector<int> hits(100, 0);
  for (int i = 0; i < 50000; ++i) ++hits[zipf.sample(rng)];
  EXPECT_GT(hits[0], hits[10]);
  EXPECT_GT(hits[10], hits[90]);
}

TEST(ZipfSampler, SingleItemAlwaysRankZero) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(ZipfSampler, RejectsAnEmptyOrOversizedRangeAndABadExponent) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  // Above 2^32 the guide's 32-bit ranks would wrap; the size is refused
  // before anything is allocated.
  EXPECT_THROW(ZipfSampler((std::size_t{1} << 32) + 1, 1.0),
               std::invalid_argument);
  for (const double alpha : {-0.5, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(ZipfSampler(64, alpha), std::invalid_argument) << alpha;
  }
  EXPECT_NO_THROW(ZipfSampler(64, 0.0));
}

class RngDistributionProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngDistributionProperty, NextBelowIsRoughlyUniform) {
  Rng rng(GetParam());
  const std::uint64_t bound = 7;
  std::vector<int> hits(bound, 0);
  const int n = 21000;
  for (int i = 0; i < n; ++i) ++hits[rng.next_below(bound)];
  for (const int h : hits) {
    EXPECT_NEAR(h, n / static_cast<int>(bound), 300);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngDistributionProperty,
                         ::testing::Values(1u, 7u, 1234u, 0xdeadbeefULL));

}  // namespace
}  // namespace fairswap
