#include "incentives/policy.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "incentives/effort_based.hpp"
#include "incentives/per_hop.hpp"
#include "incentives/tit_for_tat.hpp"
#include "incentives/zero_proximity.hpp"

namespace fairswap::incentives {
namespace {

using accounting::SwapConfig;

class PolicyFixture : public ::testing::Test {
 protected:
  PolicyFixture() {
    overlay::TopologyConfig cfg;
    cfg.node_count = 32;
    cfg.address_bits = 10;
    cfg.buckets.k = 4;
    Rng rng(1);
    topo_ = std::make_unique<overlay::Topology>(
        overlay::Topology::build(cfg, rng));

    SwapConfig swap_cfg;
    swap_cfg.payment_threshold = Token(1'000'000);
    swap_cfg.disconnect_threshold = Token(1'500'000);
    swap_ = std::make_unique<Ledger>(topo_->compiled(), swap_cfg);
    pricer_ = accounting::make_pricer("flat");

    ctx_.topo = topo_.get();
    ctx_.swap = swap_.get();
    ctx_.pricer = pricer_.get();
    ctx_.free_rider = &free_riders_;
    free_riders_.assign(topo_->node_count(), 0);
  }

  Route make_route(std::vector<NodeIndex> path, Address target = Address{7}) {
    Route r;
    r.path = std::move(path);
    r.target = target;
    r.reached_storer = true;
    return r;
  }

  std::unique_ptr<overlay::Topology> topo_;
  std::unique_ptr<Ledger> swap_;
  std::unique_ptr<accounting::Pricer> pricer_;
  std::vector<std::uint8_t> free_riders_;
  PolicyContext ctx_;
};

// --- ZeroProximityPolicy -----------------------------------------------

TEST_F(PolicyFixture, ZeroProximityPaysExactlyTheFirstHop) {
  ZeroProximityPolicy policy;
  policy.on_delivery(ctx_, make_route({0, 1, 2, 3}));
  EXPECT_GT(swap_->income()[1], Token(0));   // first hop paid
  EXPECT_TRUE(swap_->income()[2].is_zero()); // relays unpaid
  EXPECT_TRUE(swap_->income()[3].is_zero());
  EXPECT_TRUE(swap_->income()[0].is_zero());
  EXPECT_GT(swap_->spent()[0], Token(0));    // originator paid
}

TEST_F(PolicyFixture, ZeroProximityRelaysAccrueDebtOnly) {
  ZeroProximityPolicy policy;
  policy.on_delivery(ctx_, make_route({0, 1, 2, 3}));
  // 1 owes 2 and 2 owes 3 (flat price = 1 unit each).
  EXPECT_GT(swap_->balance(2, 1), Token(0));
  EXPECT_GT(swap_->balance(3, 2), Token(0));
  // Originator's payment was direct, not a balance.
  EXPECT_TRUE(swap_->balance(1, 0).is_zero());
}

TEST_F(PolicyFixture, ZeroProximityLocalHitPaysNobody) {
  ZeroProximityPolicy policy;
  policy.on_delivery(ctx_, make_route({5}));
  for (NodeIndex n = 0; n < topo_->node_count(); ++n) {
    EXPECT_TRUE(swap_->income()[n].is_zero());
  }
}

TEST_F(PolicyFixture, ZeroProximitySingleHopPaysStorer) {
  ZeroProximityPolicy policy;
  policy.on_delivery(ctx_, make_route({0, 9}));
  EXPECT_GT(swap_->income()[9], Token(0));
  EXPECT_EQ(swap_->settlements().size(), 1u);
}

TEST_F(PolicyFixture, ZeroProximityFreeRiderWithholdsPayment) {
  free_riders_[0] = 1;
  ZeroProximityPolicy policy;
  policy.on_delivery(ctx_, make_route({0, 1, 2}));
  EXPECT_TRUE(swap_->income()[1].is_zero());
  EXPECT_GT(swap_->balance(1, 0), Token(0));  // debt instead of payment
}

TEST_F(PolicyFixture, ZeroProximityAdmitAlwaysTrue) {
  ZeroProximityPolicy policy;
  auto route = make_route({0, 1, 2});
  EXPECT_TRUE(policy.admit(ctx_, route));
}

// --- PerHopSwapPolicy ---------------------------------------------------

TEST_F(PolicyFixture, PerHopEveryPairAccrues) {
  PerHopSwapPolicy policy;
  policy.on_delivery(ctx_, make_route({0, 1, 2, 3}));
  EXPECT_GT(swap_->balance(1, 0), Token(0));
  EXPECT_GT(swap_->balance(2, 1), Token(0));
  EXPECT_GT(swap_->balance(3, 2), Token(0));
}

TEST_F(PolicyFixture, PerHopSettlesAtThreshold) {
  // Lower the threshold so a few deliveries trigger settlement.
  SwapConfig cfg;
  cfg.payment_threshold = Token(3);
  cfg.disconnect_threshold = Token(10);
  Ledger swap(topo_->compiled(), cfg);
  ctx_.swap = &swap;
  PerHopSwapPolicy policy;
  for (int i = 0; i < 3; ++i) policy.on_delivery(ctx_, make_route({0, 1}));
  EXPECT_EQ(swap.income()[1], Token(3));
  EXPECT_EQ(swap.settlements().size(), 1u);
}

TEST_F(PolicyFixture, PerHopFreeRiderGetsChokedEventually) {
  SwapConfig cfg;
  cfg.payment_threshold = Token(3);
  cfg.disconnect_threshold = Token(5);
  Ledger swap(topo_->compiled(), cfg);
  ctx_.swap = &swap;
  free_riders_[0] = 1;
  PerHopSwapPolicy policy;
  auto route = make_route({0, 1});
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    if (!policy.admit(ctx_, route)) break;
    policy.on_delivery(ctx_, route);
    ++admitted;
  }
  EXPECT_EQ(admitted, 5);  // flat price 1, disconnect at 5
  EXPECT_TRUE(swap.income()[1].is_zero());
}

TEST_F(PolicyFixture, PerHopSolventPeersNeverChoked) {
  PerHopSwapPolicy policy;
  auto route = make_route({0, 1, 2});
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(policy.admit(ctx_, route));
    policy.on_delivery(ctx_, route);
  }
}

// --- TitForTatPolicy ----------------------------------------------------

TEST_F(PolicyFixture, TitForTatTracksServiceDeficit) {
  TitForTatPolicy policy(8);
  policy.on_delivery(ctx_, make_route({0, 1}));
  EXPECT_EQ(policy.deficit(0, 1), 1);
  EXPECT_EQ(policy.deficit(1, 0), -1);
}

TEST_F(PolicyFixture, TitForTatReciprocityCancels) {
  TitForTatPolicy policy(8);
  policy.on_delivery(ctx_, make_route({0, 1}));
  policy.on_delivery(ctx_, make_route({1, 0}));
  EXPECT_EQ(policy.deficit(0, 1), 0);
}

TEST_F(PolicyFixture, TitForTatChokesBeyondAllowance) {
  TitForTatPolicy policy(2);
  auto route = make_route({0, 1});
  int served = 0;
  for (int i = 0; i < 10; ++i) {
    if (!policy.admit(ctx_, route)) break;
    policy.on_delivery(ctx_, route);
    ++served;
  }
  EXPECT_EQ(served, 2);
  EXPECT_GT(policy.choked_deliveries(), 0u);
}

TEST_F(PolicyFixture, TitForTatReciprocityUnchokes) {
  TitForTatPolicy policy(1);
  auto forward = make_route({0, 1});
  auto backward = make_route({1, 0});
  EXPECT_TRUE(policy.admit(ctx_, forward));
  policy.on_delivery(ctx_, forward);
  EXPECT_FALSE(policy.admit(ctx_, forward));  // deficit at allowance
  policy.on_delivery(ctx_, backward);         // 0 pays back in kind
  EXPECT_TRUE(policy.admit(ctx_, forward));
}

TEST_F(PolicyFixture, TitForTatNeverMovesTokens) {
  TitForTatPolicy policy(8);
  policy.on_delivery(ctx_, make_route({0, 1, 2, 3}));
  for (NodeIndex n = 0; n < topo_->node_count(); ++n) {
    EXPECT_TRUE(swap_->income()[n].is_zero());
  }
}

// --- EffortBasedPolicy --------------------------------------------------

TEST_F(PolicyFixture, EffortBasedDistributesPoolByCapacity) {
  std::vector<double> capacity(topo_->node_count(), 0.0);
  capacity[3] = 1.0;
  capacity[4] = 3.0;
  EffortBasedPolicy policy(capacity, Token(4000));
  policy.on_step_end(ctx_);
  EXPECT_EQ(swap_->income()[3], Token(1000));
  EXPECT_EQ(swap_->income()[4], Token(3000));
  EXPECT_TRUE(swap_->income()[0].is_zero());
}

TEST_F(PolicyFixture, EffortBasedEqualCapacityPerfectF2) {
  EffortBasedPolicy policy({}, Token(3200));
  policy.on_step_end(ctx_);
  const Token expected(3200 / static_cast<Token::rep>(topo_->node_count()));
  for (NodeIndex n = 0; n < topo_->node_count(); ++n) {
    EXPECT_EQ(swap_->income()[n], expected);
  }
}

TEST_F(PolicyFixture, EffortBasedDeliveriesEarnNothingDirectly) {
  EffortBasedPolicy policy({}, Token(1000));
  policy.on_delivery(ctx_, make_route({0, 1, 2}));
  EXPECT_TRUE(swap_->income()[1].is_zero());
  // But usage is still metered as SWAP debt.
  EXPECT_GT(swap_->balance(1, 0), Token(0));
}

// --- factory ------------------------------------------------------------

TEST(PolicyFactory, ResolvesAllKnownNames) {
  for (const char* name :
       {"zero-proximity", "per-hop-swap", "tit-for-tat", "effort-based"}) {
    const auto policy = make_policy(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
  }
  EXPECT_EQ(make_policy("unknown"), nullptr);
}

}  // namespace
}  // namespace fairswap::incentives
