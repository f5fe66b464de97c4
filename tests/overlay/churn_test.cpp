#include "overlay/churn.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "oracles/forwarding_router.hpp"

namespace fairswap::overlay {
namespace {

DynamicOverlay make_overlay(std::size_t nodes = 200, std::uint64_t seed = 1) {
  TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = 12;
  cfg.buckets.k = 4;
  Rng rng(seed);
  return DynamicOverlay(Topology::build(cfg, rng));
}

TEST(Churn, StartsFullyAlive) {
  const auto overlay = make_overlay();
  EXPECT_EQ(overlay.alive_count(), 200u);
  for (NodeIndex n = 0; n < 200; ++n) EXPECT_TRUE(overlay.alive(n));
}

TEST(Churn, FailAndReviveTrackLiveness) {
  auto overlay = make_overlay();
  overlay.fail(5);
  EXPECT_FALSE(overlay.alive(5));
  EXPECT_EQ(overlay.alive_count(), 199u);
  overlay.fail(5);  // idempotent
  EXPECT_EQ(overlay.alive_count(), 199u);
  overlay.revive(5);
  EXPECT_TRUE(overlay.alive(5));
  EXPECT_EQ(overlay.alive_count(), 200u);
  EXPECT_EQ(overlay.stats().failures, 1u);
  EXPECT_EQ(overlay.stats().revivals, 1u);
}

TEST(Churn, FailRandomNeverKillsEveryone) {
  auto overlay = make_overlay(50);
  Rng rng(3);
  overlay.fail_random(500, rng);
  EXPECT_GE(overlay.alive_count(), 1u);
}

TEST(Churn, ClosestAliveSkipsDeadNodes) {
  auto overlay = make_overlay();
  const auto& topo = overlay.topology();
  Rng rng(5);
  const Address target{
      static_cast<AddressValue>(rng.next_below(topo.space().size()))};
  const NodeIndex primary = overlay.closest_alive(target);
  EXPECT_EQ(primary, topo.closest_node(target));
  overlay.fail(primary);
  const NodeIndex fallback = overlay.closest_alive(target);
  EXPECT_NE(fallback, primary);
  EXPECT_TRUE(overlay.alive(fallback));
  // Fallback is the brute-force closest among the living.
  for (NodeIndex n = 0; n < overlay.node_count(); ++n) {
    if (!overlay.alive(n)) continue;
    EXPECT_LE(xor_distance(topo.address_of(fallback), target),
              xor_distance(topo.address_of(n), target));
  }
}

TEST(Churn, RouteOnHealthyOverlayMatchesStaticRouter) {
  auto overlay = make_overlay(300, 7);
  const ForwardingRouter router(overlay.topology());
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const auto origin = static_cast<NodeIndex>(rng.index(overlay.node_count()));
    const Address target{static_cast<AddressValue>(
        rng.next_below(overlay.topology().space().size()))};
    const Route churn_route = overlay.route(origin, target);
    const Route static_route = router.route(origin, target);
    EXPECT_EQ(churn_route.path, static_route.path);
    EXPECT_EQ(churn_route.reached_storer, static_route.reached_storer);
  }
}

TEST(Churn, RoutesAvoidDeadRelays) {
  auto overlay = make_overlay(300, 11);
  Rng rng(13);
  overlay.fail_random(90, rng);  // 30% churn
  for (int i = 0; i < 200; ++i) {
    NodeIndex origin;
    do {
      origin = static_cast<NodeIndex>(rng.index(overlay.node_count()));
    } while (!overlay.alive(origin));
    const Address target{static_cast<AddressValue>(
        rng.next_below(overlay.topology().space().size()))};
    const Route r = overlay.route(origin, target);
    for (const NodeIndex hop : r.path) {
      EXPECT_TRUE(overlay.alive(hop));
    }
    if (r.reached_storer) {
      EXPECT_EQ(r.terminal(), overlay.closest_alive(target));
    }
  }
  EXPECT_GT(overlay.stats().dead_peer_encounters, 0u);
}

TEST(Churn, SuccessDegradesWithChurnAndRecoversAfterRepair) {
  auto overlay = make_overlay(300, 15);
  Rng rng(17);
  auto success_rate = [&](int samples) {
    int ok = 0;
    for (int i = 0; i < samples; ++i) {
      NodeIndex origin;
      do {
        origin = static_cast<NodeIndex>(rng.index(overlay.node_count()));
      } while (!overlay.alive(origin));
      const Address target{static_cast<AddressValue>(
          rng.next_below(overlay.topology().space().size()))};
      if (overlay.route(origin, target).reached_storer) ++ok;
    }
    return static_cast<double>(ok) / samples;
  };

  const double healthy = success_rate(300);
  overlay.fail_random(120, rng);  // 40% churn
  const double churned = success_rate(300);
  overlay.repair_all(rng);
  const double repaired = success_rate(300);

  EXPECT_GT(healthy, 0.99);
  EXPECT_LT(churned, healthy);
  EXPECT_GT(repaired, churned);
  EXPECT_GT(repaired, 0.95);
}

TEST(Churn, RepairReplacesDeadEntries) {
  auto overlay = make_overlay(200, 19);
  Rng rng(21);
  overlay.fail_random(60, rng);
  // Find an alive node with a stale table.
  NodeIndex stale_node = 0;
  for (NodeIndex n = 0; n < overlay.node_count(); ++n) {
    if (overlay.alive(n) && overlay.staleness(n) > 0.0) {
      stale_node = n;
      break;
    }
  }
  ASSERT_GT(overlay.staleness(stale_node), 0.0);
  overlay.repair(stale_node, rng);
  EXPECT_DOUBLE_EQ(overlay.staleness(stale_node), 0.0);
}

TEST(Churn, RepairOnDeadNodeIsNoop) {
  auto overlay = make_overlay(100, 23);
  Rng rng(25);
  overlay.fail(3);
  EXPECT_EQ(overlay.repair(3, rng), 0u);
}

TEST(Churn, StalenessReflectsDeadShare) {
  auto overlay = make_overlay(100, 27);
  EXPECT_DOUBLE_EQ(overlay.staleness(0), 0.0);
  // Kill every peer of node 0.
  for (const Address peer : overlay.topology().table(0).all_peers()) {
    overlay.fail(*overlay.topology().index_of(peer));
  }
  EXPECT_DOUBLE_EQ(overlay.staleness(0), 1.0);
}

TEST(Churn, DeadOriginatorRoutesNothing) {
  auto overlay = make_overlay(100, 29);
  overlay.fail(4);
  const Route r = overlay.route(4, Address{123});
  EXPECT_FALSE(r.reached_storer);
  EXPECT_EQ(r.hops(), 0u);
}

}  // namespace
}  // namespace fairswap::overlay
