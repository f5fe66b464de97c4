#include "overlay/graph_metrics.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"

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

TEST(GraphMetrics, RoutingQualityCountsConsistent) {
  const auto topo = make_topology(200, 4, 1);
  Rng rng(3);
  const auto q = measure_routing(topo, rng, 500);
  EXPECT_EQ(q.samples, 500u);
  EXPECT_LE(q.reached, q.samples);
  EXPECT_EQ(q.hop_stats.count(), 500u);
  const auto histogram_total = std::accumulate(
      q.hop_histogram.begin(), q.hop_histogram.end(), std::uint64_t{0});
  EXPECT_EQ(histogram_total, 500u);
}

TEST(GraphMetrics, SuccessRateNearOneOnHealthyTopology) {
  const auto topo = make_topology(300, 4, 2);
  Rng rng(5);
  const auto q = measure_routing(topo, rng, 1000);
  EXPECT_GT(q.success_rate(), 0.99);
  EXPECT_EQ(q.truncated, 0u);
}

TEST(GraphMetrics, DeterministicGivenSeed) {
  const auto topo = make_topology(150, 4, 3);
  Rng r1(7);
  Rng r2(7);
  const auto a = measure_routing(topo, r1, 200);
  const auto b = measure_routing(topo, r2, 200);
  EXPECT_EQ(a.reached, b.reached);
  EXPECT_EQ(a.hop_histogram, b.hop_histogram);
}

TEST(GraphMetrics, BucketFillBetweenZeroAndOne) {
  const auto topo = make_topology(200, 4, 4);
  for (const double f : bucket_fill(topo)) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

TEST(GraphMetrics, ShallowBucketsFullerThanDeepOnes) {
  // Bucket 0 has ~half the network as candidates; the deepest buckets
  // usually have none.
  const auto topo = make_topology(200, 4, 5);
  const auto fill = bucket_fill(topo);
  EXPECT_DOUBLE_EQ(fill[0], 1.0);
  EXPECT_LT(fill.back(), fill.front());
}

TEST(GraphMetrics, ReachabilityFullOnHealthyTopology) {
  const auto topo = make_topology(120, 4, 6);
  EXPECT_DOUBLE_EQ(reachability(topo), 1.0);
}

TEST(GraphMetrics, SingleNodeReachabilityIsOne) {
  // Topology::build rejects a single node (Topology.RejectsASingleNode), so
  // the smallest overlay that builds stands in: each of two nodes holds the
  // other, and both ordered pairs reach.
  const auto topo = make_topology(2, 4, 7);
  EXPECT_DOUBLE_EQ(reachability(topo), 1.0);
}

TEST(GraphMetrics, OutDegreesMatchTableSizes) {
  const auto topo = make_topology(100, 4, 8);
  const auto deg = out_degrees(topo);
  ASSERT_EQ(deg.size(), topo.node_count());
  for (NodeIndex i = 0; i < topo.node_count(); ++i) {
    EXPECT_EQ(deg[i], topo.table(i).size());
  }
}

TEST(GraphMetrics, LargerKIncreasesMeanOutDegree) {
  const auto k4 = make_topology(200, 4, 9);
  const auto k20 = make_topology(200, 20, 9);
  const auto d4 = out_degrees(k4);
  const auto d20 = out_degrees(k20);
  const auto sum = [](const std::vector<std::uint64_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
  };
  EXPECT_GT(sum(d20), sum(d4));
}

}  // namespace
}  // namespace fairswap::overlay
