#include "reference_zipf.hpp"

#include <cassert>
#include <cmath>

namespace fairswap {

ReferenceZipfSampler::ReferenceZipfSampler(std::size_t n, double alpha) {
  assert(n > 0);
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against floating-point shortfall
}

std::size_t ReferenceZipfSampler::rank_of(double u) const noexcept {
  // Binary search for the first cdf entry >= u.
  std::size_t lo = 0;
  std::size_t hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace fairswap
