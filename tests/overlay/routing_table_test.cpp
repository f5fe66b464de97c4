#include "overlay/routing_table.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace fairswap::overlay {
namespace {

RoutingTable make_table(int bits, AddressValue self, std::size_t k) {
  return RoutingTable(AddressSpace(bits), Address{self}, BucketPolicy{.k = k});
}

TEST(RoutingTable, RejectsSelf) {
  auto t = make_table(8, 91, 4);
  EXPECT_FALSE(t.try_add(Address{91}));
  EXPECT_EQ(t.size(), 0u);
}

TEST(RoutingTable, RejectsDuplicates) {
  auto t = make_table(8, 91, 4);
  EXPECT_TRUE(t.try_add(Address{245}));
  EXPECT_FALSE(t.try_add(Address{245}));
  EXPECT_EQ(t.size(), 1u);
}

TEST(RoutingTable, RejectsOutOfSpaceAddresses) {
  auto t = make_table(8, 91, 4);
  EXPECT_FALSE(t.try_add(Address{300}));
}

TEST(RoutingTable, EnforcesBucketCapacity) {
  auto t = make_table(8, 0, 2);
  // Bucket 0 = addresses with the first bit set (128..255).
  EXPECT_TRUE(t.try_add(Address{128}));
  EXPECT_TRUE(t.try_add(Address{129}));
  EXPECT_FALSE(t.try_add(Address{130}));
  EXPECT_EQ(t.bucket_size(0), 2u);
}

TEST(RoutingTable, Bucket0OverrideAppliesOnlyToBucket0) {
  RoutingTable t(AddressSpace(8), Address{0},
                 BucketPolicy{.k = 1, .k_bucket0 = 3});
  EXPECT_TRUE(t.try_add(Address{128}));
  EXPECT_TRUE(t.try_add(Address{129}));
  EXPECT_TRUE(t.try_add(Address{130}));
  EXPECT_FALSE(t.try_add(Address{131}));
  // Bucket 1 (addresses 64..127 for self=0) still has capacity 1.
  EXPECT_TRUE(t.try_add(Address{64}));
  EXPECT_FALSE(t.try_add(Address{65}));
}

TEST(RoutingTable, PeersLandInCorrectBucket) {
  auto t = make_table(8, 91, 4);  // 91 = 0101_1011
  ASSERT_TRUE(t.try_add(Address{245}));  // first bit differs -> bucket 0
  ASSERT_TRUE(t.try_add(Address{64}));   // 0100_0000 -> bucket 3
  EXPECT_EQ(t.bucket(0).size(), 1u);
  EXPECT_EQ(t.bucket(3).size(), 1u);
  EXPECT_EQ(t.bucket(0)[0], (Address{245}));
  EXPECT_EQ(t.bucket(3)[0], (Address{64}));
}

TEST(RoutingTable, ContainsFindsAddedPeers) {
  auto t = make_table(8, 91, 4);
  t.try_add(Address{245});
  EXPECT_TRUE(t.contains(Address{245}));
  EXPECT_FALSE(t.contains(Address{246}));
  EXPECT_FALSE(t.contains(Address{91}));  // self never "contained"
}

TEST(RoutingTable, ClosestPeerPicksXorMinimum) {
  auto t = make_table(8, 0, 4);
  t.try_add(Address{128});
  t.try_add(Address{64});
  t.try_add(Address{65});
  // Target 66: distances 128^66=194, 64^66=2, 65^66=3.
  const auto best = t.closest_peer(Address{66});
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, (Address{64}));
}

TEST(RoutingTable, ClosestPeerOnEmptyTableIsNull) {
  auto t = make_table(8, 0, 4);
  EXPECT_FALSE(t.closest_peer(Address{1}).has_value());
}

TEST(RoutingTable, NextHopRequiresStrictProgress) {
  auto t = make_table(8, 2, 4);
  t.try_add(Address{128});  // far from target 3
  // self=2 (dist 1 to target 3); peer 128 has dist 131 -> no progress.
  EXPECT_FALSE(t.next_hop(Address{3}).has_value());
}

TEST(RoutingTable, NextHopForSelfTargetIsNull) {
  auto t = make_table(8, 2, 4);
  t.try_add(Address{128});
  EXPECT_FALSE(t.next_hop(Address{2}).has_value());
}

TEST(RoutingTable, NextHopFindsCloserPeerInDeeperBucket) {
  auto t = make_table(8, 0b01000000, 4);  // self = 64
  // Target 65 (buddy of self). Peer 66 differs from self at bit 6
  // (0100_0010), bucket 6; dist(66,65)=3 < dist(64,65)=1? No: 64^65=1,
  // 66^65=3 -> peer NOT closer. Use peer 65... that's the target itself
  // as a node: dist 0 -> closer.
  t.try_add(Address{66});
  EXPECT_FALSE(t.next_hop(Address{65}).has_value());
  t.try_add(Address{65});
  const auto hop = t.next_hop(Address{65});
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, (Address{65}));
}

TEST(RoutingTable, RenderMentionsSelfAndBuckets) {
  auto t = make_table(8, 91, 4);
  t.try_add(Address{245});
  const std::string s = t.render();
  EXPECT_NE(s.find("node 91"), std::string::npos);
  EXPECT_NE(s.find("bucket 0"), std::string::npos);
}

// --- Property: pruned next_hop == naive next_hop ----------------------

class NextHopEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NextHopEquivalence, FastPathMatchesNaiveScan) {
  Rng rng(GetParam());
  const AddressSpace space(12);
  for (int trial = 0; trial < 30; ++trial) {
    const Address self{static_cast<AddressValue>(rng.next_below(space.size()))};
    RoutingTable t(space, self, BucketPolicy{.k = 4});
    for (int p = 0; p < 60; ++p) {
      t.try_add(
          Address{static_cast<AddressValue>(rng.next_below(space.size()))});
    }
    for (int q = 0; q < 50; ++q) {
      const Address target{
          static_cast<AddressValue>(rng.next_below(space.size()))};
      const auto fast = t.next_hop(target);
      const auto naive = t.next_hop_naive(target);
      ASSERT_EQ(fast.has_value(), naive.has_value())
          << "self=" << self.v << " target=" << target.v;
      if (fast) {
        EXPECT_EQ(fast->v, naive->v)
            << "self=" << self.v << " target=" << target.v;
      }
    }
  }
}

TEST_P(NextHopEquivalence, NextHopAlwaysStrictlyCloser) {
  Rng rng(GetParam() ^ 0xabcdef);
  const AddressSpace space(10);
  const Address self{static_cast<AddressValue>(rng.next_below(space.size()))};
  RoutingTable t(space, self, BucketPolicy{.k = 3});
  for (int p = 0; p < 40; ++p) {
    t.try_add(Address{static_cast<AddressValue>(rng.next_below(space.size()))});
  }
  for (int q = 0; q < 200; ++q) {
    const Address target{
        static_cast<AddressValue>(rng.next_below(space.size()))};
    if (const auto hop = t.next_hop(target)) {
      EXPECT_LT(xor_distance(*hop, target), xor_distance(self, target));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NextHopEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace fairswap::overlay
