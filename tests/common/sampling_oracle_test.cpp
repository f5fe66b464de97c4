// Rng::sample_without_replacement's sparse shuffle against the dense
// index-vector loop it replaced (reference_sampling.*): the same indices
// in the same order, and the same number of draws taken from the stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "oracles/reference_sampling.hpp"

namespace fairswap {
namespace {

void expect_same_sample(std::uint64_t seed, std::size_t n,
                        std::size_t count) {
  SCOPED_TRACE(testing::Message()
               << "seed=" << seed << " n=" << n << " count=" << count);
  Rng a(seed);
  Rng b = a;
  EXPECT_EQ(a.sample_without_replacement(n, count),
            reference_sample_without_replacement(b, n, count));
  EXPECT_EQ(a.next(), b.next());
}

TEST(SamplingOracle, GridMatchesTheDenseShuffle) {
  // Counts below, at and above n, on sizes around the powers of two the
  // displaced-position table rounds to.
  for (const std::size_t n : {0, 1, 2, 3, 7, 8, 9, 31, 32, 33, 500, 4097}) {
    for (const std::size_t count :
         {0, 1, 2, 4, 5, 16, 17, 100, 4096, 5000}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        expect_same_sample(seed, n, count);
      }
    }
  }
}

TEST(SamplingOracle, RandomSizesMatchTheDenseShuffle) {
  // The topology builder's shape: pools of any size, small k.
  Rng sizes(97);
  for (int trial = 0; trial < 2'000; ++trial) {
    const std::size_t n = sizes.next_below(3'000);
    const std::size_t count = sizes.next_below(64);
    expect_same_sample(static_cast<std::uint64_t>(trial), n, count);
  }
}

TEST(SamplingOracle, ReusedScratchMatchesTheDenseShuffle) {
  // The topology builder's use: one output and one scratch across calls
  // whose tables grow and shrink, so slots of earlier calls linger.
  Rng sizes(98);
  Rng a(99);
  Rng b = a;
  std::vector<std::size_t> out;
  SampleScratch scratch;
  for (int call = 0; call < 3'000; ++call) {
    const std::size_t n = sizes.next_below(sizes.chance(0.1) ? 5'000 : 40);
    const std::size_t count = sizes.next_below(sizes.chance(0.1) ? 200 : 24);
    a.sample_without_replacement(n, count, out, scratch);
    ASSERT_EQ(out, reference_sample_without_replacement(b, n, count))
        << "call " << call << ": n=" << n << " count=" << count;
  }
  EXPECT_EQ(a.next(), b.next());
}

TEST(SamplingOracle, FullShufflesMatchTheDenseShuffle) {
  // count == n displaces nearly every position: the table's worst case.
  for (const std::size_t n : {1, 2, 10, 1000, 10'000}) {
    expect_same_sample(n, n, n);
  }
}

}  // namespace
}  // namespace fairswap
