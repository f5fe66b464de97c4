#include "oracles/reference_sampling.hpp"

#include <numeric>
#include <utility>

namespace fairswap {

std::vector<std::size_t> reference_sample_without_replacement(
    Rng& rng, std::size_t n, std::size_t count) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  const std::size_t take = count < n ? count : n;
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.next_below(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(take);
  return idx;
}

}  // namespace fairswap
