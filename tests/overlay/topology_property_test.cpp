// Parameterized structural properties of topology construction, swept
// over bucket size: these hold for every k, not just the paper's {4, 20}.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "graph_metrics.hpp"
#include "oracles/forwarding_router.hpp"
#include "overlay/topology.hpp"

namespace fairswap::overlay {
namespace {

class TopologyPerK : public ::testing::TestWithParam<std::size_t> {
 protected:
  Topology build(std::uint64_t seed = 11) const {
    TopologyConfig cfg;
    cfg.node_count = 300;
    cfg.address_bits = 13;
    cfg.buckets.k = GetParam();
    Rng rng(seed);
    return Topology::build(cfg, rng);
  }
};

TEST_P(TopologyPerK, BucketsNeverExceedCapacity) {
  const auto topo = build();
  for (NodeIndex n = 0; n < topo.node_count(); ++n) {
    for (int b = 0; b < topo.space().bits(); ++b) {
      EXPECT_LE(topo.table(n).bucket_size(b), GetParam());
    }
  }
}

TEST_P(TopologyPerK, BucketMembersShareExactPrefix) {
  const auto topo = build();
  for (NodeIndex n = 0; n < topo.node_count(); ++n) {
    const Address self = topo.address_of(n);
    for (int b = 0; b < topo.space().bits(); ++b) {
      for (const Address peer : topo.table(n).bucket(b)) {
        EXPECT_EQ(topo.space().proximity(self, peer), b);
      }
    }
  }
}

TEST_P(TopologyPerK, GreedyRoutingAlwaysTerminatesWithinBitBound) {
  const auto topo = build();
  const ForwardingRouter router(topo);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const auto origin = static_cast<NodeIndex>(rng.index(topo.node_count()));
    const Address target{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    const Route r = router.route(origin, target);
    EXPECT_LE(r.hops(), static_cast<std::size_t>(topo.space().bits()));
    EXPECT_FALSE(r.truncated);
  }
}

TEST_P(TopologyPerK, KnowsGraphIsStronglyConnected) {
  const auto topo = build();
  EXPECT_DOUBLE_EQ(reachability(topo), 1.0);
}

TEST_P(TopologyPerK, RoutingSuccessIsNearPerfect) {
  const auto topo = build();
  Rng rng(7);
  const auto quality = measure_routing(topo, rng, 1000);
  EXPECT_GT(quality.success_rate(), 0.99);
}

TEST_P(TopologyPerK, MeanHopsDecreasesMonotonicallyInK) {
  // Compare against twice the bucket size: more peers per bucket means
  // strictly better (or equal) greedy progress per hop on average.
  TopologyConfig small_cfg;
  small_cfg.node_count = 300;
  small_cfg.address_bits = 13;
  small_cfg.buckets.k = GetParam();
  TopologyConfig big_cfg = small_cfg;
  big_cfg.buckets.k = GetParam() * 2;
  Rng r1(13);
  Rng r2(13);
  const auto small_topo = Topology::build(small_cfg, r1);
  const auto big_topo = Topology::build(big_cfg, r2);
  Rng m1(17);
  Rng m2(17);
  const auto small_q = measure_routing(small_topo, m1, 2000);
  const auto big_q = measure_routing(big_topo, m2, 2000);
  EXPECT_LE(big_q.hop_stats.mean(), small_q.hop_stats.mean() + 0.05);
}

INSTANTIATE_TEST_SUITE_P(BucketSizes, TopologyPerK,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 20u, 32u));

}  // namespace
}  // namespace fairswap::overlay
