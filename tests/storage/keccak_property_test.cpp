// Parameterized Keccak structural properties: incremental hashing must
// match one-shot hashing for every input length and split point, and
// digests of distinct random inputs must be distinct in practice.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "storage/keccak.hpp"

namespace fairswap::storage {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 7 + 13) & 0xff);
  }
  return out;
}

class KeccakLengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KeccakLengths, IncrementalEqualsOneShotAtEverySplit) {
  const auto data = pattern_bytes(GetParam());
  const Digest expected = keccak256(data);
  // Try a handful of split points including the extremes.
  for (const std::size_t split :
       {std::size_t{0}, data.size() / 3, data.size() / 2, data.size()}) {
    Keccak256 h;
    h.update(std::span<const std::uint8_t>(data.data(), split));
    h.update(std::span<const std::uint8_t>(data.data() + split,
                                           data.size() - split));
    EXPECT_EQ(h.finalize(), expected) << "len " << data.size() << " split "
                                      << split;
  }
}

TEST_P(KeccakLengths, ByteWiseFeedMatches) {
  const auto data = pattern_bytes(GetParam());
  Keccak256 h;
  for (const std::uint8_t b : data) h.update(&b, 1);
  EXPECT_EQ(h.finalize(), keccak256(data));
}

INSTANTIATE_TEST_SUITE_P(Lengths, KeccakLengths,
                         ::testing::Values(0u, 1u, 31u, 32u, 64u, 135u, 136u,
                                           137u, 200u, 272u, 1000u, 4096u));

TEST(KeccakCollisions, NoCollisionsInRandomSample) {
  // 2000 random 64-byte inputs: all digests distinct (a collision would
  // be a catastrophic implementation bug, not bad luck).
  Rng rng(99);
  std::set<std::string> seen;
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> data(64);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_TRUE(seen.insert(to_hex(keccak256(data))).second) << i;
  }
}

}  // namespace
}  // namespace fairswap::storage
