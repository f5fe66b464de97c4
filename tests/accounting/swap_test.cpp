#include "oracles/swap_network.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace fairswap::accounting {
namespace {

SwapConfig small_config() {
  SwapConfig cfg;
  cfg.payment_threshold = Token(100);
  cfg.disconnect_threshold = Token(150);
  cfg.amortization_per_tick = Token(10);
  return cfg;
}

TEST(Swap, FreshNetworkHasZeroBalances) {
  const SwapNetwork net(4, small_config());
  EXPECT_TRUE(net.balance(0, 1).is_zero());
  EXPECT_EQ(net.active_pairs(), 0u);
}

TEST(Swap, DebitAccruesOnProviderSide) {
  SwapNetwork net(4, small_config());
  EXPECT_EQ(net.debit(/*consumer=*/0, /*provider=*/1, Token(30)),
            DebitResult::kOk);
  EXPECT_EQ(net.balance(1, 0), Token(30));   // 0 owes 1
  EXPECT_EQ(net.balance(0, 1), Token(-30));  // mirror view
}

TEST(Swap, MirrorInvariantHoldsUnderRandomTraffic) {
  SwapNetwork net(6, small_config());
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<NodeIndex>(rng.index(6));
    auto b = static_cast<NodeIndex>(rng.index(6));
    if (a == b) b = (b + 1) % 6;
    (void)net.debit(a, b, Token(static_cast<Token::rep>(rng.next_below(20))),
                    rng.chance(0.5));
  }
  for (NodeIndex a = 0; a < 6; ++a) {
    for (NodeIndex b = 0; b < 6; ++b) {
      if (a == b) continue;
      EXPECT_EQ(net.balance(a, b), -net.balance(b, a));
    }
  }
}

TEST(Swap, OppositeServiceCancelsDebt) {
  SwapNetwork net(2, small_config());
  (void)net.debit(0, 1, Token(40));
  (void)net.debit(1, 0, Token(40));
  EXPECT_TRUE(net.balance(0, 1).is_zero());
}

TEST(Swap, SettlementTriggersAtPaymentThreshold) {
  SwapNetwork net(2, small_config());
  EXPECT_EQ(net.debit(0, 1, Token(60)), DebitResult::kOk);
  EXPECT_EQ(net.debit(0, 1, Token(60)), DebitResult::kSettled);
  // Debt cleared, provider earned the full 120.
  EXPECT_TRUE(net.balance(1, 0).is_zero());
  EXPECT_EQ(net.income()[1], Token(120));
  EXPECT_EQ(net.spent()[0], Token(120));
  ASSERT_EQ(net.settlements().size(), 1u);
  EXPECT_EQ(net.settlements()[0].debtor, 0u);
  EXPECT_EQ(net.settlements()[0].creditor, 1u);
}

TEST(Swap, NoSettleDebtAccruesWithoutIncome) {
  SwapNetwork net(2, small_config());
  EXPECT_EQ(net.debit(0, 1, Token(120), /*can_settle=*/false),
            DebitResult::kOk);
  EXPECT_EQ(net.balance(1, 0), Token(120));
  EXPECT_TRUE(net.income()[1].is_zero());
}

TEST(Swap, NoSettleDisconnectsAtThreshold) {
  SwapNetwork net(2, small_config());
  EXPECT_EQ(net.debit(0, 1, Token(140), false), DebitResult::kOk);
  EXPECT_EQ(net.debit(0, 1, Token(20), false), DebitResult::kDisconnected);
  // Refused service does not change the balance.
  EXPECT_EQ(net.balance(1, 0), Token(140));
}

TEST(Swap, PayDirectRecordsIncomeAndSettlement) {
  SwapNetwork net(3, small_config());
  net.pay_direct(2, 0, Token(55));
  EXPECT_EQ(net.income()[0], Token(55));
  EXPECT_EQ(net.spent()[2], Token(55));
  EXPECT_EQ(net.settlements().size(), 1u);
  // Direct payment does not touch the pairwise balance.
  EXPECT_TRUE(net.balance(0, 2).is_zero());
}

TEST(Swap, AmortizationMovesBalancesTowardZero) {
  SwapNetwork net(2, small_config());
  (void)net.debit(0, 1, Token(35), false);
  net.amortize_tick();  // -10
  EXPECT_EQ(net.balance(1, 0), Token(25));
  net.amortize_tick();
  net.amortize_tick();
  EXPECT_EQ(net.balance(1, 0), Token(5));
  const std::size_t zeroed = net.amortize_tick();
  EXPECT_EQ(zeroed, 1u);
  EXPECT_TRUE(net.balance(1, 0).is_zero());
}

TEST(Swap, AmortizationWorksOnNegativeBalances) {
  SwapNetwork net(2, small_config());
  // provider 0: +15 -> from 1's side -15
  (void)net.debit(1, 0, Token(15), false);
  net.amortize_tick();
  EXPECT_EQ(net.balance(0, 1), Token(5));
  net.amortize_tick();
  EXPECT_TRUE(net.balance(0, 1).is_zero());
}

TEST(Swap, AmortizationDisabledWhenZeroRate) {
  SwapConfig cfg = small_config();
  cfg.amortization_per_tick = Token(0);
  SwapNetwork net(2, cfg);
  (void)net.debit(0, 1, Token(35), false);
  EXPECT_EQ(net.amortize_tick(), 0u);
  EXPECT_EQ(net.balance(1, 0), Token(35));
}

TEST(Swap, TickAdvances) {
  SwapNetwork net(2, small_config());
  EXPECT_EQ(net.tick(), 0u);
  net.advance_tick();
  net.amortize_tick();
  EXPECT_EQ(net.tick(), 2u);
}

TEST(Swap, SettlementRecordsTick) {
  SwapNetwork net(2, small_config());
  net.advance_tick();
  net.advance_tick();
  (void)net.debit(0, 1, Token(120));
  ASSERT_EQ(net.settlements().size(), 1u);
  EXPECT_EQ(net.settlements()[0].tick, 2u);
}

TEST(Swap, OutstandingDebtSumsAbsoluteBalances) {
  SwapNetwork net(4, small_config());
  (void)net.debit(0, 1, Token(30), false);
  (void)net.debit(2, 3, Token(40), false);
  EXPECT_EQ(net.outstanding_debt(), Token(70));
}

TEST(Swap, MintCreditsIncomeWithoutCounterparty) {
  SwapNetwork net(2, small_config());
  net.mint(1, Token(99));
  EXPECT_EQ(net.income()[1], Token(99));
  EXPECT_TRUE(net.spent()[0].is_zero());
  EXPECT_TRUE(net.spent()[1].is_zero());
  EXPECT_TRUE(net.settlements().empty());
}

TEST(Swap, ForEachPairVisitsActivePairs) {
  SwapNetwork net(4, small_config());
  (void)net.debit(0, 3, Token(10), false);
  (void)net.debit(2, 1, Token(20), false);
  int visited = 0;
  net.for_each_pair([&](NodeIndex lo, NodeIndex hi, Token bal) {
    ++visited;
    EXPECT_LT(lo, hi);
    EXPECT_FALSE(bal.is_zero());
  });
  EXPECT_EQ(visited, 2);
}

TEST(Swap, RefusedDebitCreatesNoPhantomPair) {
  // Regression: debit() used to default-insert the balance entry before
  // the disconnect check, so a refused debit permanently created a
  // zero-balance pair that active_pairs / amortize_tick / for_each_pair
  // then scanned forever.
  SwapNetwork net(2, small_config());
  EXPECT_EQ(net.debit(0, 1, Token(200), /*can_settle=*/false),
            DebitResult::kDisconnected);
  EXPECT_EQ(net.active_pairs(), 0u);
  EXPECT_TRUE(net.outstanding_debt().is_zero());
  int visited = 0;
  net.for_each_pair([&](NodeIndex, NodeIndex, Token) { ++visited; });
  EXPECT_EQ(visited, 0);
  // Repeated refusals do not accumulate anything either.
  EXPECT_EQ(net.debit(0, 1, Token(151), false), DebitResult::kDisconnected);
  EXPECT_EQ(net.active_pairs(), 0u);
}

TEST(Swap, SettledPairIsNotActive) {
  // active_pairs() documents "nonzero balance"; a pair settled back to
  // zero must not count (it used to: settlement kept the zero entry).
  SwapNetwork net(2, small_config());
  EXPECT_EQ(net.debit(0, 1, Token(120)), DebitResult::kSettled);
  EXPECT_EQ(net.active_pairs(), 0u);
  // The pair becomes active again on new unsettled debt.
  EXPECT_EQ(net.debit(0, 1, Token(10), false), DebitResult::kOk);
  EXPECT_EQ(net.active_pairs(), 1u);
}

TEST(Swap, AmortizedPairIsNotActive) {
  SwapNetwork net(2, small_config());
  (void)net.debit(0, 1, Token(25), false);
  EXPECT_EQ(net.active_pairs(), 1u);
  net.amortize_tick();  // 25 -> 15
  net.amortize_tick();  // 15 -> 5
  EXPECT_EQ(net.active_pairs(), 1u);
  EXPECT_EQ(net.amortize_tick(), 1u);  // 5 -> 0: forgiven
  EXPECT_EQ(net.active_pairs(), 0u);
  EXPECT_TRUE(net.balance(1, 0).is_zero());
}

TEST(Swap, ExactlyCancelledPairIsNotActive) {
  SwapNetwork net(2, small_config());
  (void)net.debit(0, 1, Token(40), false);
  (void)net.debit(1, 0, Token(40), false);
  EXPECT_EQ(net.active_pairs(), 0u);
}

TEST(Swap, ConservationIncomeEqualsSpending) {
  // Without minting, every settled token a node earns was spent by
  // another node.
  SwapNetwork net(5, small_config());
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<NodeIndex>(rng.index(5));
    auto b = static_cast<NodeIndex>(rng.index(5));
    if (a == b) b = (b + 1) % 5;
    (void)net.debit(a, b, Token(static_cast<Token::rep>(rng.next_below(30))));
  }
  Token income_total;
  Token spent_total;
  for (NodeIndex n = 0; n < 5; ++n) {
    income_total += net.income()[n];
    spent_total += net.spent()[n];
  }
  EXPECT_EQ(income_total, spent_total);
}

}  // namespace
}  // namespace fairswap::accounting
