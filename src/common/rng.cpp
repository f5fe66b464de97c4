#include "common/rng.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace fairswap {

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  // xoshiro state must not be all-zero; SplitMix64 makes that effectively
  // impossible, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Rejection sampling on the top of the range to avoid modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range.
  const std::uint64_t r = (span == 0) ? next() : next_below(span);
  return lo + static_cast<std::int64_t>(r);
}

double Rng::uniform01() noexcept {
  // 53 random bits into the mantissa: uniform on [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::size_t Rng::index(std::size_t n) noexcept {
  assert(n > 0);
  return static_cast<std::size_t>(next_below(n));
}

void Rng::sample_without_replacement(std::size_t n, std::size_t count,
                                     std::vector<std::size_t>& out,
                                     SampleScratch& scratch) {
  const std::size_t take = count < n ? count : n;
  out.resize(take);
  if (take == 0) return;
  // Step i swaps positions i and j >= i of the virtual permutation and
  // emits position i's new value; position i is never read again, so
  // only j's new value is stored. At most `take` positions are ever
  // displaced, so a linear-probing table of twice that never fills. A
  // slot counts only under this call's stamp, so no call clears the table.
  const std::size_t mask = std::bit_ceil(2 * take) - 1;
  auto& slots = scratch.slots_;
  if (slots.size() <= mask) slots.resize(mask + 1);
  const std::uint64_t stamp = ++scratch.stamp_;
  const auto find = [&](std::size_t pos) -> SampleScratch::Slot& {
    std::size_t h = (pos * 0x9e3779b97f4a7c15ULL) & mask;
    while (slots[h].stamp == stamp && slots[h].pos != pos) {
      h = (h + 1) & mask;
    }
    return slots[h];
  };
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(next_below(n - i));
    const SampleScratch::Slot& at_i = find(i);
    const std::size_t value_i = at_i.stamp == stamp ? at_i.value : i;
    SampleScratch::Slot& at_j = find(j);
    out[i] = at_j.stamp == stamp ? at_j.value : j;
    at_j = {j, value_i, stamp};
  }
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t count) {
  std::vector<std::size_t> out;
  SampleScratch scratch;
  sample_without_replacement(n, count, out, scratch);
  return out;
}

Rng Rng::split(std::uint64_t stream) const noexcept {
  // Derive a child seed by mixing the parent seed with the stream id
  // through SplitMix64; distinct streams yield uncorrelated children.
  SplitMix64 sm(seed_ ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  return Rng(sm.next());
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha) : alpha_(alpha) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be positive");
  if (n > (std::size_t{1} << 32)) {
    throw std::invalid_argument("ZipfSampler: n must be at most 2^32");
  }
  if (!std::isfinite(alpha) || alpha < 0.0) {
    throw std::invalid_argument(
        "ZipfSampler: alpha must be finite and non-negative");
  }
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against floating-point shortfall

  // guide_[j] = first i with cdf_[i] >= j/m. Both j/m and (in rank_of)
  // u*m are exact because m is a power of two; cdf_.back() == 1.0 > j/m
  // keeps the scan inside the table.
  const std::size_t m = std::bit_ceil(n);
  buckets_ = static_cast<double>(m);
  guide_.resize(m);
  std::size_t i = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const double threshold = static_cast<double>(j) / buckets_;
    while (cdf_[i] < threshold) ++i;
    guide_[j] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace fairswap
