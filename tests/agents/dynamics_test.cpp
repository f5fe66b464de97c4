#include "agents/dynamics.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "agents/strategy.hpp"
#include "overlay/topology.hpp"

namespace fairswap::agents {
namespace {

overlay::Topology make_topology(std::size_t nodes = 40) {
  overlay::TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = 9;
  Rng rng(5);
  return overlay::Topology::build(cfg, rng);
}

std::vector<Strategy> population(std::size_t n, double rider_share) {
  std::vector<Strategy> pop(n, Strategy::kShare);
  for (std::size_t i = 0; i < static_cast<std::size_t>(rider_share * n); ++i) {
    pop[i] = Strategy::kFreeRide;
  }
  return pop;
}

TEST(Dynamics, FactoryKnowsBothProtocolsAndRejectsUnknown) {
  ASSERT_NE(make_dynamics("imitate"), nullptr);
  EXPECT_EQ(make_dynamics("imitate")->name(), "imitate");
  ASSERT_NE(make_dynamics("best-response"), nullptr);
  EXPECT_EQ(make_dynamics("best-response")->name(), "best-response");
  EXPECT_EQ(make_dynamics("replicator"), nullptr);
}

TEST(Dynamics, NeighborListsResolveEveryTableEntry) {
  const auto topo = make_topology();
  const auto lists = neighbor_lists(topo);
  ASSERT_EQ(lists.size(), topo.node_count());
  std::size_t total = 0;
  for (NodeIndex n = 0; n < topo.node_count(); ++n) {
    total += lists[n].size();
    const overlay::RoutingTable table = topo.table(n);
    for (const NodeIndex peer : lists[n]) {
      ASSERT_LT(peer, topo.node_count());
      EXPECT_TRUE(table.contains(topo.address_of(peer)));
    }
  }
  // No foreign entries in a clean topology: lists mirror the edge count.
  EXPECT_EQ(total, topo.edge_count());
}

TEST(Dynamics, ImitationCopiesOnlyStrictlyBetterNeighbors) {
  const auto topo = make_topology();
  const auto dynamics = make_dynamics("imitate");
  const auto neighbors = neighbor_lists(topo);
  const std::size_t n = topo.node_count();

  // Free riders earn more than sharers: imitation must only ever flip
  // SHARE -> FREE_RIDE.
  auto current = population(n, 0.3);
  std::vector<double> utility(n);
  for (std::size_t i = 0; i < n; ++i) {
    utility[i] = current[i] == Strategy::kFreeRide ? 10.0 : -5.0;
  }
  Rng rng(17);
  std::vector<Strategy> next;
  dynamics->revise(current, utility, neighbors, {1.0, 0.0, 10}, rng, next);
  std::size_t flips_to_ride = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (current[i] == Strategy::kFreeRide) {
      EXPECT_EQ(next[i], Strategy::kFreeRide);  // nothing better to copy
    } else if (next[i] == Strategy::kFreeRide) {
      ++flips_to_ride;
    }
  }
  EXPECT_GT(flips_to_ride, 0u);

  // Uniform utility: strictly-better never fires; the population is a
  // fixed point.
  std::fill(utility.begin(), utility.end(), 1.0);
  Rng rng2(17);
  dynamics->revise(current, utility, neighbors, {1.0, 0.0, 10}, rng2, next);
  EXPECT_EQ(next, current);
}

TEST(Dynamics, RevisionRateZeroFreezesThePopulation) {
  const auto topo = make_topology();
  const auto neighbors = neighbor_lists(topo);
  const std::size_t n = topo.node_count();
  const auto current = population(n, 0.5);
  std::vector<double> utility(n, 0.0);
  for (const char* name : {"imitate", "best-response"}) {
    Rng rng(3);
    std::vector<Strategy> next;
    make_dynamics(name)->revise(current, utility, neighbors, {0.0, 0.5, 10},
                                rng, next);
    EXPECT_EQ(next, current) << name;
  }
}

TEST(Dynamics, ExtinctStrategiesStayExtinctWithoutNoise) {
  const auto topo = make_topology();
  const auto neighbors = neighbor_lists(topo);
  const std::size_t n = topo.node_count();
  const std::vector<Strategy> all_share(n, Strategy::kShare);
  std::vector<double> utility(n, -100.0);  // even terrible payoffs
  for (const char* name : {"imitate", "best-response"}) {
    Rng rng(23);
    std::vector<Strategy> next;
    make_dynamics(name)->revise(all_share, utility, neighbors, {1.0, 0.0, 10},
                                rng, next);
    EXPECT_EQ(next, all_share) << name;  // absorbing: nothing to adopt
  }
}

TEST(Dynamics, NoiseReintroducesStrategies) {
  const auto topo = make_topology();
  const auto neighbors = neighbor_lists(topo);
  const std::size_t n = topo.node_count();
  const std::vector<Strategy> all_share(n, Strategy::kShare);
  const std::vector<double> utility(n, 1.0);
  Rng rng(29);
  std::vector<Strategy> next;
  make_dynamics("imitate")->revise(all_share, utility, neighbors,
                                   {1.0, 1.0, 10}, rng, next);
  EXPECT_GT(prevalence(next), 0.0);
  EXPECT_LT(prevalence(next), 1.0);
}

TEST(Dynamics, BestResponseAdoptsTheBetterObservedMean) {
  const auto topo = make_topology();
  const auto neighbors = neighbor_lists(topo);
  const std::size_t n = topo.node_count();
  auto current = population(n, 0.5);
  std::vector<double> utility(n);
  for (std::size_t i = 0; i < n; ++i) {
    utility[i] = current[i] == Strategy::kShare ? 5.0 : -5.0;
  }
  Rng rng(31);
  std::vector<Strategy> next;
  make_dynamics("best-response")
      ->revise(current, utility, neighbors, {1.0, 0.0, 10}, rng, next);
  // Sharing dominates in every sample that observes both strategies;
  // nobody abandons it, and most riders defect to it.
  for (std::size_t i = 0; i < n; ++i) {
    if (current[i] == Strategy::kShare) {
      EXPECT_EQ(next[i], Strategy::kShare);
    }
  }
  EXPECT_LT(prevalence(next), prevalence(current));
}

TEST(Dynamics, EqualSeedsGiveEqualTrajectories) {
  const auto topo = make_topology();
  const auto neighbors = neighbor_lists(topo);
  const std::size_t n = topo.node_count();
  const auto current = population(n, 0.4);
  std::vector<double> utility(n);
  for (std::size_t i = 0; i < n; ++i) utility[i] = static_cast<double>(i % 7);
  for (const char* name : {"imitate", "best-response"}) {
    Rng a(101), b(101);
    std::vector<Strategy> next_a, next_b;
    make_dynamics(name)->revise(current, utility, neighbors, {0.5, 0.1, 10},
                                a, next_a);
    make_dynamics(name)->revise(current, utility, neighbors, {0.5, 0.1, 10},
                                b, next_b);
    EXPECT_EQ(next_a, next_b) << name;
  }
}

}  // namespace
}  // namespace fairswap::agents
