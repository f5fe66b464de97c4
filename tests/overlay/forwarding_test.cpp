#include "oracles/forwarding_router.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace fairswap::overlay {
namespace {

Topology make_topology(std::size_t nodes, std::size_t k, std::uint64_t seed,
                       int bits = 12) {
  TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = bits;
  cfg.buckets.k = k;
  Rng rng(seed);
  return Topology::build(cfg, rng);
}

TEST(Forwarding, RouteToOwnAddressHasZeroHops) {
  const auto topo = make_topology(100, 4, 1);
  const ForwardingRouter router(topo);
  const Route r = router.route(5, topo.address_of(5));
  EXPECT_EQ(r.hops(), 0u);
  EXPECT_TRUE(r.reached_storer);
  EXPECT_EQ(r.originator(), 5u);
  EXPECT_EQ(r.terminal(), 5u);
}

TEST(Forwarding, RouteEndsAtStorerWhenReached) {
  const auto topo = make_topology(200, 4, 2);
  const ForwardingRouter router(topo);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto origin = static_cast<NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    const Route r = router.route(origin, chunk);
    if (r.reached_storer) {
      EXPECT_EQ(r.terminal(), topo.closest_node(chunk));
    }
  }
}

TEST(Forwarding, PathIsSimpleNoRevisits) {
  const auto topo = make_topology(300, 4, 3);
  const ForwardingRouter router(topo);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const auto origin = static_cast<NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    const Route r = router.route(origin, chunk);
    std::set<NodeIndex> seen(r.path.begin(), r.path.end());
    EXPECT_EQ(seen.size(), r.path.size()) << "route revisited a node";
  }
}

TEST(Forwarding, DistanceToTargetStrictlyDecreasesAlongPath) {
  const auto topo = make_topology(300, 4, 4);
  const ForwardingRouter router(topo);
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const auto origin = static_cast<NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    const Route r = router.route(origin, chunk);
    for (std::size_t h = 1; h < r.path.size(); ++h) {
      EXPECT_LT(xor_distance(topo.address_of(r.path[h]), chunk),
                xor_distance(topo.address_of(r.path[h - 1]), chunk));
    }
  }
}

TEST(Forwarding, HopCountLogarithmicInNetworkSize) {
  // Each hop increases the shared prefix with the target by >= 1 bit, so
  // routes are bounded by the address width; in practice much shorter.
  const auto topo = make_topology(500, 4, 5);
  const ForwardingRouter router(topo);
  Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    const auto origin = static_cast<NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    const Route r = router.route(origin, chunk);
    EXPECT_LE(r.hops(), static_cast<std::size_t>(topo.space().bits()));
    EXPECT_FALSE(r.truncated);
  }
}

TEST(Forwarding, FirstHopIsClosestTablePeer) {
  const auto topo = make_topology(200, 4, 6);
  const ForwardingRouter router(topo);
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    const auto origin = static_cast<NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    const Route r = router.route(origin, chunk);
    if (r.hops() == 0) {
      EXPECT_EQ(r.first_hop(), origin);
      continue;
    }
    const auto expected = topo.table(origin).next_hop(chunk);
    ASSERT_TRUE(expected.has_value());
    EXPECT_EQ(topo.address_of(r.first_hop()), *expected);
  }
}

TEST(Forwarding, HighSuccessRateWithPaperParameters) {
  // 1000 nodes, 16-bit space, k=4 — the paper's configuration. Greedy
  // forwarding over full prefix buckets should essentially always reach
  // the globally closest node.
  TopologyConfig cfg;
  cfg.node_count = 1000;
  cfg.address_bits = 16;
  cfg.buckets.k = 4;
  Rng trng(kDefaultSeed);
  const auto topo = Topology::build(cfg, trng);
  const ForwardingRouter router(topo);
  Rng rng(23);
  int reached = 0;
  const int samples = 2000;
  for (int i = 0; i < samples; ++i) {
    const auto origin = static_cast<NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    if (router.route(origin, chunk).reached_storer) ++reached;
  }
  EXPECT_GT(static_cast<double>(reached) / samples, 0.999);
}

TEST(Forwarding, LargerKGivesShorterRoutes) {
  Rng rng(29);
  const auto k4 = make_topology(400, 4, 31);
  const auto k20 = make_topology(400, 20, 31);
  const ForwardingRouter r4(k4);
  const ForwardingRouter r20(k20);
  double hops4 = 0;
  double hops20 = 0;
  const int samples = 1000;
  for (int i = 0; i < samples; ++i) {
    const auto origin = static_cast<NodeIndex>(rng.index(400));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(k4.space().size()))};
    hops4 += static_cast<double>(r4.route(origin, chunk).hops());
    hops20 += static_cast<double>(r20.route(origin, chunk).hops());
  }
  EXPECT_LT(hops20, hops4);
}

TEST(RouteStruct, FirstHopOfLocalRouteIsOriginator) {
  Route r;
  r.path = {3};
  EXPECT_EQ(r.first_hop(), 3u);
  EXPECT_EQ(r.hops(), 0u);
}

TEST(RouteStruct, AccessorsOnMultiHopPath) {
  Route r;
  r.path = {1, 2, 3, 4};
  EXPECT_EQ(r.hops(), 3u);
  EXPECT_EQ(r.originator(), 1u);
  EXPECT_EQ(r.first_hop(), 2u);
  EXPECT_EQ(r.terminal(), 4u);
}

}  // namespace
}  // namespace fairswap::overlay
