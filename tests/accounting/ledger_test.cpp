// Unit tests for the SWAP ledger on the edge arena: slot resolution from
// edge ids, debit/settlement semantics, the active-list bookkeeping (only
// nonzero balances are ever scanned) and the sim-plane counter bumps.
#include "accounting/ledger.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "overlay/compiled_router.hpp"
#include "overlay/topology.hpp"

namespace fairswap::accounting {
namespace {

using overlay::CompiledRouter;

SwapConfig small_config() {
  SwapConfig cfg;
  cfg.payment_threshold = Token(100);
  cfg.disconnect_threshold = Token(150);
  cfg.amortization_per_tick = Token(10);
  return cfg;
}

class EdgeLedgerFixture : public ::testing::Test {
 protected:
  EdgeLedgerFixture() {
    overlay::TopologyConfig cfg;
    cfg.node_count = 64;
    cfg.address_bits = 10;
    cfg.buckets.k = 4;
    Rng rng(7);
    topo_ = std::make_unique<overlay::Topology>(
        overlay::Topology::build(cfg, rng));
    router_ = &topo_->compiled();
  }

  /// First directed arena edge leaving `from` (every node knows peers).
  [[nodiscard]] EdgeId first_edge_of(NodeIndex from) const {
    const auto [begin, end] = router_->node_edge_range(from);
    EXPECT_LT(begin, end);
    return begin;
  }

  /// A pair of nodes with no routing-table edge in either direction, if
  /// one exists in this topology.
  [[nodiscard]] std::pair<NodeIndex, NodeIndex> unconnected_pair() const {
    const auto n = static_cast<NodeIndex>(topo_->node_count());
    for (NodeIndex a = 0; a < n; ++a) {
      for (NodeIndex b = a + 1; b < n; ++b) {
        if (!connected(a, b) && !connected(b, a)) return {a, b};
      }
    }
    ADD_FAILURE() << "topology is a complete graph";
    return {0, 0};
  }

  [[nodiscard]] bool connected(NodeIndex from, NodeIndex to) const {
    const auto [begin, end] = router_->node_edge_range(from);
    for (EdgeId e = begin; e < end; ++e) {
      if (router_->edge_target(e) == to) return true;
    }
    return false;
  }

  std::unique_ptr<overlay::Topology> topo_;
  const CompiledRouter* router_{nullptr};
};

TEST_F(EdgeLedgerFixture, FreshLedgerHasZeroEverything) {
  const Ledger ledger(*router_, small_config());
  EXPECT_EQ(ledger.active_pairs(), 0u);
  EXPECT_TRUE(ledger.outstanding_debt().is_zero());
  EXPECT_TRUE(ledger.settlements().empty());
  EXPECT_GT(ledger.pair_count(), 0u);
  EXPECT_LE(ledger.pair_count(), router_->edge_count());
  EXPECT_GT(ledger.memory_bytes(), 0u);
}

TEST_F(EdgeLedgerFixture, DebitViaEdgeIdMatchesDebitViaScan) {
  Ledger with_hint(*router_, small_config());
  Ledger without_hint(*router_, small_config());
  const EdgeId e = first_edge_of(3);
  const NodeIndex provider = router_->edge_target(e);

  EXPECT_EQ(with_hint.debit(3, provider, Token(30), false, e),
            DebitResult::kOk);
  EXPECT_EQ(without_hint.debit(3, provider, Token(30), false),
            DebitResult::kOk);
  EXPECT_EQ(with_hint.balance(provider, 3), without_hint.balance(provider, 3));
  EXPECT_EQ(with_hint.balance(provider, 3, e), Token(30));
}

TEST_F(EdgeLedgerFixture, MirrorInvariantHolds) {
  Ledger ledger(*router_, small_config());
  const EdgeId e = first_edge_of(0);
  const NodeIndex provider = router_->edge_target(e);
  (void)ledger.debit(0, provider, Token(42), false, e);
  EXPECT_EQ(ledger.balance(provider, 0), Token(42));
  EXPECT_EQ(ledger.balance(0, provider), Token(-42));
}

TEST_F(EdgeLedgerFixture, SettlementClearsBalanceAndRecordsIncome) {
  Ledger ledger(*router_, small_config());
  const EdgeId e = first_edge_of(5);
  const NodeIndex provider = router_->edge_target(e);
  EXPECT_EQ(ledger.debit(5, provider, Token(60), true, e), DebitResult::kOk);
  EXPECT_EQ(ledger.debit(5, provider, Token(60), true, e),
            DebitResult::kSettled);
  EXPECT_TRUE(ledger.balance(provider, 5).is_zero());
  EXPECT_EQ(ledger.income()[provider], Token(120));
  EXPECT_EQ(ledger.spent()[5], Token(120));
  ASSERT_EQ(ledger.settlements().size(), 1u);
  EXPECT_EQ(ledger.settlements()[0].debtor, 5u);
  EXPECT_EQ(ledger.settlements()[0].creditor, provider);
  // Settled back to zero: the pair is no longer active.
  EXPECT_EQ(ledger.active_pairs(), 0u);
}

TEST_F(EdgeLedgerFixture, RefusedDebitCreatesNoActivePair) {
  Ledger ledger(*router_, small_config());
  const EdgeId e = first_edge_of(9);
  const NodeIndex provider = router_->edge_target(e);
  EXPECT_EQ(ledger.debit(9, provider, Token(200), false, e),
            DebitResult::kDisconnected);
  EXPECT_EQ(ledger.active_pairs(), 0u);
  EXPECT_TRUE(ledger.outstanding_debt().is_zero());
}

TEST_F(EdgeLedgerFixture, AmortizationOnlyTouchesActivePairsAndForgives) {
  Ledger ledger(*router_, small_config());
  const EdgeId e0 = first_edge_of(0);
  const EdgeId e1 = first_edge_of(17);
  (void)ledger.debit(0, router_->edge_target(e0), Token(25), false, e0);
  (void)ledger.debit(17, router_->edge_target(e1), Token(5), false, e1);
  EXPECT_EQ(ledger.active_pairs(), 2u);
  EXPECT_EQ(ledger.amortize_tick(), 1u);  // the 5 forgives, the 25 -> 15
  EXPECT_EQ(ledger.active_pairs(), 1u);
  EXPECT_EQ(ledger.amortize_tick(), 0u);  // 15 -> 5
  EXPECT_EQ(ledger.amortize_tick(), 1u);  // 5 -> 0
  EXPECT_EQ(ledger.active_pairs(), 0u);
  EXPECT_TRUE(ledger.outstanding_debt().is_zero());
}

TEST_F(EdgeLedgerFixture, OppositeServiceCancellationDeactivates) {
  Ledger ledger(*router_, small_config());
  // Find a reciprocal pair (u knows v; account both directions through
  // the same slot regardless of which side's edge resolves it).
  const EdgeId e = first_edge_of(2);
  const NodeIndex v = router_->edge_target(e);
  (void)ledger.debit(2, v, Token(40), false, e);
  EXPECT_EQ(ledger.active_pairs(), 1u);
  (void)ledger.debit(v, 2, Token(40), false);  // scan fallback, reverse dir
  EXPECT_EQ(ledger.active_pairs(), 0u);
  EXPECT_TRUE(ledger.balance(v, 2).is_zero());
}

TEST_F(EdgeLedgerFixture, ForEachPairVisitsOnlyNonzeroBalances) {
  Ledger ledger(*router_, small_config());
  const EdgeId e0 = first_edge_of(1);
  const EdgeId e1 = first_edge_of(30);
  (void)ledger.debit(1, router_->edge_target(e0), Token(10), false, e0);
  // settles
  (void)ledger.debit(30, router_->edge_target(e1), Token(120), true, e1);
  int visited = 0;
  ledger.for_each_pair([&](NodeIndex lo, NodeIndex hi, Token bal) {
    ++visited;
    EXPECT_LT(lo, hi);
    EXPECT_FALSE(bal.is_zero());
  });
  EXPECT_EQ(visited, 1);
}

TEST_F(EdgeLedgerFixture, UnconnectedPairDebitThrowsBalanceReadsZero) {
  Ledger ledger(*router_, small_config());
  const auto [a, b] = unconnected_pair();
  EXPECT_TRUE(ledger.balance(a, b).is_zero());
  EXPECT_THROW((void)ledger.debit(a, b, Token(1), false),
               std::invalid_argument);
}

TEST_F(EdgeLedgerFixture, PayDirectAndMintDoNotTouchBalances) {
  Ledger ledger(*router_, small_config());
  ledger.pay_direct(4, 8, Token(55));
  ledger.mint(6, Token(99));
  EXPECT_EQ(ledger.income()[8], Token(55));
  EXPECT_EQ(ledger.spent()[4], Token(55));
  EXPECT_EQ(ledger.income()[6], Token(99));
  EXPECT_EQ(ledger.active_pairs(), 0u);
  EXPECT_EQ(ledger.settlements().size(), 1u);
}

TEST_F(EdgeLedgerFixture, CountersBumpPerDebitOutcomeAndTick) {
  Ledger ledger(*router_, small_config());
  telemetry::CounterBlock counters;
  ledger.set_counters(&counters);
  const EdgeId e = first_edge_of(5);
  const NodeIndex provider = router_->edge_target(e);
  // One accrual, one settlement, one refusal, one amortization tick.
  EXPECT_EQ(ledger.debit(5, provider, Token(60), true, e), DebitResult::kOk);
  EXPECT_EQ(ledger.debit(5, provider, Token(60), true, e),
            DebitResult::kSettled);
  EXPECT_EQ(ledger.debit(5, provider, Token(200), false, e),
            DebitResult::kDisconnected);
  ledger.amortize_tick();
  ledger.advance_tick();
  // Detached, the ledger counts nowhere.
  ledger.set_counters(nullptr);
  (void)ledger.debit(5, provider, Token(1), false, e);

  using telemetry::Counter;
  const std::uint64_t on = telemetry::kEnabled ? 1 : 0;
  EXPECT_EQ(counters.value(Counter::kDebits), 3 * on);
  EXPECT_EQ(counters.value(Counter::kSettlements), on);
  EXPECT_EQ(counters.value(Counter::kRefusedPayments), on);
  EXPECT_EQ(counters.value(Counter::kAmortizeTicks), on);
}

TEST_F(EdgeLedgerFixture, TickSemanticsMatchSwapNetwork) {
  Ledger ledger(*router_, small_config());
  EXPECT_EQ(ledger.tick(), 0u);
  ledger.advance_tick();
  ledger.amortize_tick();
  EXPECT_EQ(ledger.tick(), 2u);
}

}  // namespace
}  // namespace fairswap::accounting
