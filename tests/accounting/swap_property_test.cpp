// Randomized SWAP ledger properties, swept over seeds: the ledger must
// keep its invariants under arbitrary interleavings of debits, direct
// payments, amortization and settlement.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "oracles/swap_network.hpp"

namespace fairswap::accounting {
namespace {

class SwapFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static constexpr std::size_t kNodes = 8;

  SwapConfig config() const {
    SwapConfig cfg;
    cfg.payment_threshold = Token(50);
    cfg.disconnect_threshold = Token(80);
    cfg.amortization_per_tick = Token(3);
    return cfg;
  }
};

TEST_P(SwapFuzz, MirrorInvariantUnderRandomOperations) {
  Rng rng(GetParam());
  SwapNetwork net(kNodes, config());
  for (int op = 0; op < 3000; ++op) {
    const auto a = static_cast<NodeIndex>(rng.index(kNodes));
    auto b = static_cast<NodeIndex>(rng.index(kNodes));
    if (a == b) b = (b + 1) % kNodes;
    switch (rng.next_below(4)) {
      case 0:
      case 1:
        (void)net.debit(a, b,
                        Token(static_cast<Token::rep>(rng.next_below(20))),
                        rng.chance(0.5));
        break;
      case 2:
        net.pay_direct(a, b,
                       Token(static_cast<Token::rep>(rng.next_below(20))));
        break;
      case 3:
        net.amortize_tick();
        break;
    }
  }
  for (NodeIndex a = 0; a < kNodes; ++a) {
    for (NodeIndex b = 0; b < kNodes; ++b) {
      if (a != b) {
        EXPECT_EQ(net.balance(a, b), -net.balance(b, a));
      }
    }
  }
}

TEST_P(SwapFuzz, BalancesNeverExceedDisconnectThreshold) {
  Rng rng(GetParam() ^ 0x1111);
  SwapNetwork net(kNodes, config());
  for (int op = 0; op < 3000; ++op) {
    const auto a = static_cast<NodeIndex>(rng.index(kNodes));
    auto b = static_cast<NodeIndex>(rng.index(kNodes));
    if (a == b) b = (b + 1) % kNodes;
    (void)net.debit(a, b, Token(static_cast<Token::rep>(rng.next_below(30))),
                    /*can_settle=*/false);
  }
  net.for_each_pair([&](NodeIndex, NodeIndex, Token bal) {
    EXPECT_LE(bal.abs(), net.config().disconnect_threshold);
  });
}

TEST_P(SwapFuzz, IncomeEqualsSpendingWithoutMinting) {
  Rng rng(GetParam() ^ 0x2222);
  SwapNetwork net(kNodes, config());
  for (int op = 0; op < 3000; ++op) {
    const auto a = static_cast<NodeIndex>(rng.index(kNodes));
    auto b = static_cast<NodeIndex>(rng.index(kNodes));
    if (a == b) b = (b + 1) % kNodes;
    if (rng.chance(0.7)) {
      (void)net.debit(a, b, Token(static_cast<Token::rep>(rng.next_below(25))));
    } else {
      net.pay_direct(a, b, Token(static_cast<Token::rep>(rng.next_below(25))));
    }
  }
  Token income;
  Token spent;
  for (NodeIndex n = 0; n < kNodes; ++n) {
    income += net.income()[n];
    spent += net.spent()[n];
  }
  EXPECT_EQ(income, spent);
}

TEST_P(SwapFuzz, SettlementsMatchIncomeLedger) {
  Rng rng(GetParam() ^ 0x3333);
  SwapNetwork net(kNodes, config());
  for (int op = 0; op < 2000; ++op) {
    const auto a = static_cast<NodeIndex>(rng.index(kNodes));
    auto b = static_cast<NodeIndex>(rng.index(kNodes));
    if (a == b) b = (b + 1) % kNodes;
    (void)net.debit(a, b, Token(static_cast<Token::rep>(rng.next_below(25))));
  }
  std::vector<Token> credited(kNodes);
  for (const Settlement& s : net.settlements()) {
    credited[s.creditor] += s.amount;
  }
  for (NodeIndex n = 0; n < kNodes; ++n) {
    EXPECT_EQ(credited[n], net.income()[n]);
  }
}

TEST_P(SwapFuzz, AmortizationIsMonotoneTowardZero) {
  Rng rng(GetParam() ^ 0x4444);
  SwapNetwork net(kNodes, config());
  for (int op = 0; op < 500; ++op) {
    const auto a = static_cast<NodeIndex>(rng.index(kNodes));
    auto b = static_cast<NodeIndex>(rng.index(kNodes));
    if (a == b) b = (b + 1) % kNodes;
    (void)net.debit(a, b, Token(static_cast<Token::rep>(rng.next_below(30))),
                    false);
  }
  Token prev = net.outstanding_debt();
  for (int tick = 0; tick < 50; ++tick) {
    net.amortize_tick();
    const Token cur = net.outstanding_debt();
    EXPECT_LE(cur, prev);
    prev = cur;
  }
  // 50 ticks x 3 units covers any balance bounded by the disconnect
  // threshold (80): everything is forgiven.
  EXPECT_TRUE(prev.is_zero());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwapFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace fairswap::accounting
