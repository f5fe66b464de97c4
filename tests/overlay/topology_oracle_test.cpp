// Topology::build against the routing tables' dense definition
// (oracles/reference_tables.hpp): the same addresses, the same peers in
// every bucket in the same order, and the same number of draws taken from
// the stream, over random cells and the boundary ones. PinnedSetup.* pins
// fixed cells to hashes; this checks any cell against an independent
// builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/rng.hpp"
#include "oracles/reference_tables.hpp"
#include "overlay/topology.hpp"

namespace fairswap::overlay {
namespace {

void expect_reference_tables(std::size_t nodes, int bits, std::size_t k,
                             std::size_t k_bucket0, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message()
               << "nodes=" << nodes << " bits=" << bits << " k=" << k
               << " k_bucket0=" << k_bucket0 << " seed=" << seed);
  TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = bits;
  cfg.buckets.k = k;
  cfg.buckets.k_bucket0 = k_bucket0;
  Rng rng(seed);
  Rng reference_rng(seed);
  const Topology topo = Topology::build(cfg, rng);
  const ReferenceTopology reference = reference_tables(cfg, reference_rng);

  ASSERT_TRUE(std::ranges::equal(topo.addresses(), reference.addresses));
  std::size_t edges = 0;
  for (NodeIndex n = 0; n < topo.node_count(); ++n) {
    const RoutingTable table = topo.table(n);
    const RoutingTable& expected = reference.tables[n];
    for (int b = 0; b < bits; ++b) {
      ASSERT_TRUE(std::ranges::equal(table.bucket(b), expected.bucket(b)))
          << "node " << n << ", bucket " << b;
    }
    edges += expected.size();
  }
  EXPECT_EQ(topo.edge_count(), edges);
  EXPECT_EQ(rng.next(), reference_rng.next());
}

TEST(TopologyOracle, RandomCellsMatchTheDenseDefinition) {
  Rng cells(2028);
  for (int trial = 0; trial < 60; ++trial) {
    const int bits = 1 + static_cast<int>(cells.next_below(32));
    const std::uint64_t most =
        std::min<std::uint64_t>(std::uint64_t{1} << bits, 400);
    const std::size_t nodes = 2 + cells.next_below(most - 1);
    const std::size_t k = 1 + cells.next_below(24);
    const std::size_t k_bucket0 =
        cells.chance(0.3) ? 1 + cells.next_below(40) : 0;
    expect_reference_tables(nodes, bits, k, k_bucket0, cells.next());
  }
}

TEST(TopologyOracle, PaperCells) {
  expect_reference_tables(1000, 16, 4, 0, 11);
  expect_reference_tables(1000, 16, 20, 0, 12);
  expect_reference_tables(1000, 16, 4, 8, 13);
}

TEST(TopologyOracle, TwoNodesOnOneBit) {
  expect_reference_tables(2, 1, 4, 0, 17);
  expect_reference_tables(2, 1, 1, 0, 18);
}

TEST(TopologyOracle, ThirtyTwoBitSpace) {
  expect_reference_tables(500, 32, 4, 0, 19);
  expect_reference_tables(300, 32, 20, 2, 20);
}

TEST(TopologyOracle, EveryAddressANode) {
  // Every bucket's pool is exactly half of self's group.
  expect_reference_tables(256, 8, 4, 0, 21);
  expect_reference_tables(64, 6, 64, 0, 22);
}

}  // namespace
}  // namespace fairswap::overlay
