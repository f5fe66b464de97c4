// The Zipf sampler as it was before the guide table: the same CDF, and a
// binary search for the first entry >= u on every draw. It is the test
// oracle ZipfSampler must match rank for rank (zipf_guide_test.cpp);
// nothing outside tests/ links it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace fairswap {

/// Same CDF and the same single uniform01() draw per sample as
/// ZipfSampler, inverted by binary search.
class ReferenceZipfSampler {
 public:
  ReferenceZipfSampler(std::size_t n, double alpha);

  [[nodiscard]] std::size_t sample(Rng& rng) const noexcept {
    return rank_of(rng.uniform01());
  }

  /// First rank whose CDF is >= u, for u in [0, 1).
  [[nodiscard]] std::size_t rank_of(double u) const noexcept;

  [[nodiscard]] std::span<const double> cdf() const noexcept { return cdf_; }

 private:
  std::vector<double> cdf_;
};

}  // namespace fairswap
