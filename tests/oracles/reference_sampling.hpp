// Rng::sample_without_replacement as it was before the sparse shuffle: a
// partial Fisher-Yates over a materialized n-entry index vector. It is the
// test oracle the sparse version must match index for index
// (tests/common/sampling_oracle_test.cpp), and the sampler of the dense
// reference tables (reference_tables.hpp). Nothing outside tests/ and
// bench_scale links it.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace fairswap {

/// The dense shuffle: iota(n), then `min(count, n)` swaps drawn with
/// rng.next_below(n - i), truncated to the swapped prefix.
[[nodiscard]] std::vector<std::size_t> reference_sample_without_replacement(
    Rng& rng, std::size_t n, std::size_t count);

}  // namespace fairswap
