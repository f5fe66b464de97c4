#include "overlay/iterative.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "oracles/forwarding_router.hpp"

namespace fairswap::overlay {
namespace {

Topology make_topology(std::size_t nodes, std::size_t k, std::uint64_t seed) {
  TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = 12;
  cfg.buckets.k = k;
  Rng rng(seed);
  return Topology::build(cfg, rng);
}

TEST(Iterative, FindsStorerWithKademliaDefaults) {
  const auto topo = make_topology(300, 20, 1);
  const IterativeLookup lookup(topo);
  Rng rng(5);
  int found = 0;
  const int samples = 300;
  for (int i = 0; i < samples; ++i) {
    const auto requester = static_cast<NodeIndex>(rng.index(topo.node_count()));
    const Address target{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    const auto result = lookup.lookup(requester, target);
    if (result.found_storer) ++found;
  }
  EXPECT_GT(static_cast<double>(found) / samples, 0.95);
}

TEST(Iterative, ContactedNodesAllLearnRequesterIdentity) {
  // The privacy contrast of paper §III-A: in iterative Kademlia every
  // queried node sees the requester; in forwarding Kademlia only the
  // first hop interacts with it.
  const auto topo = make_topology(300, 20, 2);
  const IterativeLookup lookup(topo);
  const ForwardingRouter router(topo);
  Rng rng(7);
  std::size_t iterative_exposure = 0;
  std::size_t forwarding_exposure = 0;
  for (int i = 0; i < 100; ++i) {
    const auto requester = static_cast<NodeIndex>(rng.index(topo.node_count()));
    const Address target{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    iterative_exposure += lookup.lookup(requester, target).contacted.size();
    // Forwarding: exactly one node (the first hop) talks to the requester.
    forwarding_exposure += router.route(requester, target).hops() > 0 ? 1 : 0;
  }
  EXPECT_GT(iterative_exposure, forwarding_exposure);
}

TEST(Iterative, MessagesEqualContactedCount) {
  const auto topo = make_topology(200, 8, 3);
  const IterativeLookup lookup(topo);
  const auto result = lookup.lookup(0, Address{1234});
  EXPECT_EQ(result.messages, result.contacted.size());
}

TEST(Iterative, ContactedNodesAreDistinct) {
  const auto topo = make_topology(200, 8, 4);
  const IterativeLookup lookup(topo);
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    const auto requester = static_cast<NodeIndex>(rng.index(topo.node_count()));
    const Address target{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    const auto result = lookup.lookup(requester, target);
    const std::set<NodeIndex> unique(result.contacted.begin(),
                                     result.contacted.end());
    EXPECT_EQ(unique.size(), result.contacted.size());
  }
}

TEST(Iterative, AlphaLimitsPerRoundFanout) {
  const auto topo = make_topology(200, 8, 5);
  IterativeConfig cfg;
  cfg.alpha = 1;
  cfg.max_rounds = 3;
  const IterativeLookup lookup(topo, cfg);
  const auto result = lookup.lookup(0, Address{999});
  EXPECT_LE(result.contacted.size(), 3u);  // alpha * max_rounds
}

TEST(Iterative, RoundsBoundedByConfig) {
  const auto topo = make_topology(200, 4, 6);
  IterativeConfig cfg;
  cfg.max_rounds = 2;
  const IterativeLookup lookup(topo, cfg);
  const auto result = lookup.lookup(0, Address{321});
  EXPECT_LE(result.rounds, 2u);
}

TEST(Iterative, ConvergesToSameStorerAsForwarding) {
  // Both lookup styles must agree on who stores a chunk (when both
  // succeed) — they disagree only in who learns what along the way.
  const auto topo = make_topology(300, 20, 7);
  const IterativeLookup lookup(topo);
  const ForwardingRouter router(topo);
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const auto requester = static_cast<NodeIndex>(rng.index(topo.node_count()));
    const Address target{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    const auto it = lookup.lookup(requester, target);
    const auto fw = router.route(requester, target);
    if (it.found_storer && fw.reached_storer) {
      EXPECT_EQ(it.closest, fw.terminal());
    }
  }
}

}  // namespace
}  // namespace fairswap::overlay
