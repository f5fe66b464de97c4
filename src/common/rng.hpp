// Deterministic random number generation.
//
// The paper stresses that "random numbers are generated using the same seed
// to ensure consistency throughout all experiments" and that "all randomness
// is generated from the uniform distribution". std::mt19937 +
// std::uniform_int_distribution are not guaranteed to produce identical
// streams across standard libraries, so we implement our own small, fast,
// well-studied generators: SplitMix64 (for seeding and cheap streams) and
// xoshiro256** (the workhorse). Both are reproducible bit-for-bit on every
// platform.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace fairswap {

/// SplitMix64: a tiny 64-bit generator mainly used to expand a single seed
/// into independent streams (Steele, Lea & Flood 2014).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Returns the next 64 random bits.
  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Default seed used throughout the repository; all paper reproductions are
/// run with this seed unless a bench/test overrides it.
inline constexpr std::uint64_t kDefaultSeed =
    0xFA1250'2208'0706'7ULL & 0xFFFFFFFFFFFFFFFFULL;

/// Scratch space of Rng::sample_without_replacement: its table of displaced
/// positions. A caller that samples many times keeps one, so the table is
/// allocated only when a call needs more slots than any call before it.
class SampleScratch {
 private:
  friend class Rng;
  struct Slot {
    std::size_t pos;
    std::size_t value;
    /// The call that wrote the slot; a slot of an earlier call is free.
    std::uint64_t stamp;
  };
  std::vector<Slot> slots_;
  std::uint64_t stamp_{0};
};

/// xoshiro256** 1.0 (Blackman & Vigna 2018). All experiment randomness in
/// FairSwap flows through this generator. Satisfies the
/// std::uniform_random_bit_generator concept so it can also drive standard
/// library facilities when portability of the stream does not matter.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state from SplitMix64(seed), as recommended by
  /// the xoshiro authors.
  explicit Rng(std::uint64_t seed = kDefaultSeed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Returns the next 64 random bits.
  result_type operator()() noexcept { return next(); }
  result_type next() noexcept;

  /// Uniform integer in [0, bound). Unbiased (rejection sampling).
  /// bound == 0 returns 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p.
  bool chance(double p) noexcept;

  /// Returns a uniformly random element index for a container of size n.
  /// Precondition: n > 0.
  std::size_t index(std::size_t n) noexcept;

  /// Samples `count` distinct indices from [0, n) without replacement
  /// (partial Fisher-Yates) into `out`, resized to min(count, n). If
  /// count >= n, writes all indices in shuffled order. The swaps run over
  /// the identity permutation of [0, n) without materializing it: only the
  /// positions a swap displaced are stored, in `scratch`, so a call takes
  /// O(count) time, not O(n), and writes the indices the dense shuffle
  /// returns (tests/oracles/reference_sampling). It allocates only when
  /// `out` or `scratch` must grow.
  void sample_without_replacement(std::size_t n, std::size_t count,
                                  std::vector<std::size_t>& out,
                                  SampleScratch& scratch);

  /// As above, into a new vector.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t count);

  /// Splits off an independent child generator; children with different
  /// `stream` ids are statistically independent of each other and of the
  /// parent's future output.
  [[nodiscard]] Rng split(std::uint64_t stream) const noexcept;

  /// The seed material this generator was constructed from (for logging).
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::array<std::uint64_t, 4> s_{};
  std::uint64_t seed_{0};
};

/// Zipf(α) sampler over ranks {0, .., n-1}. Used by the content-popularity
/// extension (paper §V: "adding content popularity and caching policies").
/// α == 0 degenerates to uniform.
///
/// A draw inverts the CDF through a guide table (Chen & Asau 1974): with
/// m = bit_ceil(n) buckets, guide[j] is the first rank whose CDF reaches
/// j/m, so a draw u starts at guide[floor(u*m)] and scans forward, under
/// two probes on average. m is a power of two so that u*m and j/m are
/// exact in double precision: the guide can never start past the answer,
/// and every u maps to the first rank with cdf >= u, exactly the rank a
/// binary search over the CDF returns.
class ZipfSampler {
 public:
  /// Throws std::invalid_argument for n == 0, n > 2^32 (the guide's index
  /// width), or an alpha that is negative or not finite.
  ZipfSampler(std::size_t n, double alpha);

  /// Draws a rank in [0, n) from one uniform01() value. Rank 0 is the
  /// most popular item.
  std::size_t sample(Rng& rng) const noexcept {
    return rank_of(rng.uniform01());
  }

  /// The rank a uniform value u in [0, 1) maps to: the first rank whose
  /// CDF is >= u.
  [[nodiscard]] std::size_t rank_of(double u) const noexcept {
    std::size_t i = guide_[static_cast<std::size_t>(u * buckets_)];
    while (cdf_[i] < u) ++i;
    return i;
  }

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;
  double buckets_{};  ///< m, the guide length, as a double
  double alpha_;
};

}  // namespace fairswap
