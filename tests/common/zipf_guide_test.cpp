// ZipfSampler's guide table against the binary search it replaced
// (reference_zipf.*): every uniform value must map to the same rank, on a
// random stream and on the values of u where an off-by-one would show.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "reference_zipf.hpp"

namespace fairswap {
namespace {

struct Case {
  std::size_t n;
  double alpha;
};

/// Sizes around the powers of two the guide length rounds to, and
/// exponents from uniform to alpha = 40, where the CDF reaches 1.0 within
/// a few ranks and leaves a long plateau of equal entries.
std::vector<Case> grid() {
  std::vector<Case> cases;
  for (const std::size_t n : {1, 2, 3, 5, 1000, 1024, 1025, 2048, 4097}) {
    for (const double alpha : {0.0, 0.5, 0.9, 1.2, 3.0, 40.0}) {
      cases.push_back({n, alpha});
    }
  }
  return cases;
}

TEST(ZipfGuideOracle, RandomDrawsMatchTheBinarySearch) {
  for (const Case c : grid()) {
    SCOPED_TRACE(testing::Message() << "n=" << c.n << " alpha=" << c.alpha);
    const ZipfSampler zipf(c.n, c.alpha);
    const ReferenceZipfSampler ref(c.n, c.alpha);
    Rng a(c.n * 131 + static_cast<std::uint64_t>(c.alpha * 10));
    Rng b = a;
    std::size_t mismatches = 0;
    for (int i = 0; i < 100'000; ++i) {
      if (zipf.sample(a) != ref.sample(b)) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u);
    // Both consumed exactly one uniform01() per draw.
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(ZipfGuideOracle, BoundaryValuesMatchTheBinarySearch) {
  for (const Case c : grid()) {
    SCOPED_TRACE(testing::Message() << "n=" << c.n << " alpha=" << c.alpha);
    const ZipfSampler zipf(c.n, c.alpha);
    const ReferenceZipfSampler ref(c.n, c.alpha);

    // 0, every bucket edge j/m and every CDF entry, each with the double
    // just below it, and the largest value uniform01() returns.
    std::vector<double> values{0.0, 1.0 - 0x1.0p-53};
    const std::size_t m = std::bit_ceil(c.n);
    for (std::size_t j = 0; j < m; ++j) {
      values.push_back(static_cast<double>(j) / static_cast<double>(m));
    }
    for (const double v : ref.cdf()) values.push_back(v);
    const std::size_t edges = values.size();
    for (std::size_t k = 0; k < edges; ++k) {
      values.push_back(std::nextafter(values[k], 0.0));
    }

    std::size_t compared = 0;
    for (const double u : values) {
      if (!(u >= 0.0 && u < 1.0)) continue;  // outside uniform01()'s range
      ++compared;
      ASSERT_EQ(zipf.rank_of(u), ref.rank_of(u)) << "u=" << u;
    }
    EXPECT_GE(compared, m);
  }
}

}  // namespace
}  // namespace fairswap
