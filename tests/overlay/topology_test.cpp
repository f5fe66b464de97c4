#include "overlay/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "oracles/forwarding_router.hpp"
#include "overlay/compiled_router.hpp"

namespace fairswap::overlay {
namespace {

Topology small_topology(std::size_t nodes = 100, std::size_t k = 4,
                        std::uint64_t seed = 1, int bits = 12) {
  TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = bits;
  cfg.buckets.k = k;
  Rng rng(seed);
  return Topology::build(cfg, rng);
}

TEST(Topology, BuildsRequestedNodeCount) {
  const auto topo = small_topology(100);
  EXPECT_EQ(topo.node_count(), 100u);
}

TEST(Topology, AddressesAreUniqueAndInSpace) {
  const auto topo = small_topology(200);
  std::set<AddressValue> seen;
  for (NodeIndex i = 0; i < topo.node_count(); ++i) {
    const Address a = topo.address_of(i);
    EXPECT_TRUE(topo.space().contains(a));
    EXPECT_TRUE(seen.insert(a.v).second) << "duplicate address " << a.v;
  }
}

TEST(Topology, IndexOfInvertsAddressOf) {
  const auto topo = small_topology(50);
  const ForwardingRouter oracle(topo);
  for (NodeIndex i = 0; i < topo.node_count(); ++i) {
    EXPECT_EQ(oracle.index_of(topo.address_of(i)), i);
  }
  // 50 nodes leave most of the 12-bit space unassigned.
  AddressValue unassigned = 0;
  while (oracle.index_of(Address{unassigned}).has_value()) ++unassigned;
  ASSERT_TRUE(topo.space().contains(Address{unassigned}));
  EXPECT_EQ(oracle.index_of(Address{unassigned}), std::nullopt);
  EXPECT_FALSE(topo.space().contains(Address{1u << 12}));
  EXPECT_EQ(oracle.index_of(Address{1u << 12}), std::nullopt);
}

TEST(Topology, SameSeedSameTopology) {
  const auto a = small_topology(80, 4, 7);
  const auto b = small_topology(80, 4, 7);
  ASSERT_EQ(a.node_count(), b.node_count());
  for (NodeIndex i = 0; i < a.node_count(); ++i) {
    EXPECT_EQ(a.address_of(i), b.address_of(i));
    EXPECT_EQ(a.table(i).all_peers(), b.table(i).all_peers());
  }
}

TEST(Topology, DifferentSeedsDifferentTopology) {
  const auto a = small_topology(80, 4, 7);
  const auto b = small_topology(80, 4, 8);
  bool any_diff = false;
  for (NodeIndex i = 0; i < a.node_count() && !any_diff; ++i) {
    any_diff = a.address_of(i) != b.address_of(i);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Topology, BucketsRespectCapacity) {
  const auto topo = small_topology(150, 3);
  for (NodeIndex i = 0; i < topo.node_count(); ++i) {
    const auto& t = topo.table(i);
    for (int b = 0; b < t.bucket_count(); ++b) {
      EXPECT_LE(t.bucket_size(b), 3u);
    }
  }
}

TEST(Topology, BucketsAreFullWhenCandidatesExist) {
  // With 150 nodes in a 12-bit space, bucket 0 has ~75 candidates; every
  // node's bucket 0 must be at capacity.
  const auto topo = small_topology(150, 4);
  for (NodeIndex i = 0; i < topo.node_count(); ++i) {
    EXPECT_EQ(topo.table(i).bucket_size(0), 4u);
  }
}

TEST(Topology, TablePeersAreActualNodes) {
  const auto topo = small_topology(100);
  const ForwardingRouter oracle(topo);
  for (NodeIndex i = 0; i < topo.node_count(); ++i) {
    for (const Address peer : topo.table(i).all_peers()) {
      EXPECT_TRUE(oracle.index_of(peer).has_value());
    }
  }
}

TEST(Topology, InjectedEntryJoinsTheEndOfItsBucket) {
  auto topo = small_topology(120, 2, 23, 10);
  const ForwardingRouter before(topo);
  std::set<AddressValue> taken;
  for (const Address a : topo.addresses()) taken.insert(a.v);
  // A foreign address and a node whose bucket for it has room.
  NodeIndex node = 0;
  Address foreign{};
  int bucket = -1;
  for (AddressValue v = 0; v < topo.space().size() && bucket < 0; ++v) {
    if (taken.contains(v)) continue;
    for (NodeIndex n = 0; n < topo.node_count(); ++n) {
      const int b = topo.space().bucket_index(topo.address_of(n), Address{v});
      const RoutingTable& table = before.table(n);
      if (table.bucket_size(b) >= 1 &&
          table.bucket_size(b) < table.policy().capacity(b)) {
        node = n;
        foreign = Address{v};
        bucket = b;
        break;
      }
    }
  }
  ASSERT_GE(bucket, 0);

  EXPECT_FALSE(topo.inject_table_entry(node, topo.address_of(node)));
  const std::size_t edges = topo.edge_count();
  ASSERT_TRUE(topo.inject_table_entry(node, foreign));
  EXPECT_FALSE(topo.inject_table_entry(node, foreign));  // already present
  EXPECT_EQ(topo.edge_count(), edges + 1);
  for (NodeIndex n = 0; n < topo.node_count(); ++n) {
    const RoutingTable table = topo.table(n);
    for (int b = 0; b < topo.space().bits(); ++b) {
      std::vector<Address> expected(before.table(n).bucket(b).begin(),
                                    before.table(n).bucket(b).end());
      if (n == node && b == bucket) expected.push_back(foreign);
      const auto got = table.bucket(b);
      EXPECT_TRUE(std::ranges::equal(got, expected))
          << "node " << n << ", bucket " << b;
    }
  }
}

TEST(Topology, LargerKMeansMoreEdges) {
  const auto k4 = small_topology(200, 4, 5);
  const auto k20 = small_topology(200, 20, 5);
  EXPECT_GT(k20.edge_count(), k4.edge_count());
}

TEST(Topology, ClosestNodeMatchesBruteForce) {
  const auto topo = small_topology(120, 4, 3);
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    const Address target{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    NodeIndex best = 0;
    for (NodeIndex i = 1; i < topo.node_count(); ++i) {
      if (xor_distance(topo.address_of(i), target) <
          xor_distance(topo.address_of(best), target)) {
        best = i;
      }
    }
    EXPECT_EQ(topo.compiled().storer_of(target), best)
        << "target " << target.v;
  }
}

TEST(Topology, ClosestNodeOfANodeAddressIsThatNode) {
  const auto topo = small_topology(60);
  for (NodeIndex i = 0; i < topo.node_count(); ++i) {
    EXPECT_EQ(topo.compiled().storer_of(topo.address_of(i)), i);
  }
}

TEST(Topology, RejectsZeroNodes) {
  TopologyConfig cfg;
  cfg.node_count = 0;
  Rng rng(1);
  EXPECT_THROW(Topology::build(cfg, rng), std::invalid_argument);
}

TEST(Topology, RejectsASingleNode) {
  // One node used to build, and its runs counted every request as
  // delivered over zero transmissions.
  TopologyConfig cfg;
  cfg.node_count = 1;
  Rng rng(1);
  EXPECT_THROW(Topology::build(cfg, rng), std::invalid_argument);
  cfg.node_count = 2;
  EXPECT_NO_THROW(Topology::build(cfg, rng));
}

TEST(Topology, RejectsAZeroBucketCapacity) {
  // k = 0 used to build empty routing tables, so almost no route succeeded.
  TopologyConfig cfg;
  cfg.node_count = 50;
  cfg.buckets.k = 0;
  Rng rng(1);
  EXPECT_THROW(Topology::build(cfg, rng), std::invalid_argument);
  cfg.buckets.k = 1;
  EXPECT_NO_THROW(Topology::build(cfg, rng));
}

TEST(Topology, RejectsMoreNodesThanAddresses) {
  TopologyConfig cfg;
  cfg.node_count = 300;
  cfg.address_bits = 8;  // only 256 slots
  Rng rng(1);
  EXPECT_THROW(Topology::build(cfg, rng), std::invalid_argument);
}

TEST(Topology, RejectsAnAddressWidthOutsideOneToThirtyTwo) {
  // AddressSpace clamps its width: 40 used to build a 32-bit space while
  // config().address_bits still read 40, and 0 built a 1-bit space.
  TopologyConfig cfg;
  cfg.node_count = 2;
  Rng rng(1);
  for (const int bits : {0, -1, 33, 40}) {
    cfg.address_bits = bits;
    EXPECT_THROW(Topology::build(cfg, rng), std::invalid_argument) << bits;
  }
  for (const int bits : {1, 32}) {
    cfg.address_bits = bits;
    EXPECT_NO_THROW(Topology::build(cfg, rng)) << bits;
  }
}

TEST(Topology, FullSpaceOccupancyWorks) {
  TopologyConfig cfg;
  cfg.node_count = 256;
  cfg.address_bits = 8;
  Rng rng(1);
  const auto topo = Topology::build(cfg, rng);
  EXPECT_EQ(topo.node_count(), 256u);
}

TEST(ClosestNodeIndexTest, SingleNodeAlwaysWins) {
  const AddressSpace space(8);
  const std::vector<Address> nodes{Address{77}};
  const ClosestNodeIndex idx(space, nodes);
  EXPECT_EQ(idx.closest_index(Address{0}), 0u);
  EXPECT_EQ(idx.closest_index(Address{255}), 0u);
}

TEST(ClosestNodeIndexTest, HandlesAdversarialNonAdjacentCase) {
  // Sorted-order adjacency fails for XOR: target 8, nodes {0, 7}.
  // d(0,8)=8 < d(7,8)=15 although 7 is numerically adjacent to 8.
  const AddressSpace space(4);
  const std::vector<Address> nodes{Address{0}, Address{7}};
  const ClosestNodeIndex idx(space, nodes);
  EXPECT_EQ(idx.closest_index(Address{8}), 0u);  // Address{0}
  EXPECT_EQ(idx.closest_index(Address{6}), 1u);  // Address{7}
}

}  // namespace
}  // namespace fairswap::overlay
