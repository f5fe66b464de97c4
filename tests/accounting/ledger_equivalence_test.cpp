// Differential fuzz: the edge-arena Ledger must be bit-identical to the
// (bug-fixed) map-backed SwapNetwork oracle under arbitrary interleavings of
// debit / pay_direct / mint / amortize_tick / advance_tick — including
// refusals and settlement boundary values at exactly payment_threshold
// and disconnect_threshold. Observable state compared: per-debit results,
// balances (both perspectives), income, spent, the full settlement log,
// active_pairs, outstanding_debt, and the for_each_pair multiset. Debits
// reach the Ledger both with their edge id and without one (the slot is
// then found by scanning), the two ways a route can present a hop.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "accounting/ledger.hpp"
#include "common/rng.hpp"
#include "oracles/swap_network.hpp"
#include "overlay/compiled_router.hpp"
#include "overlay/topology.hpp"

namespace fairswap::accounting {
namespace {

using overlay::CompiledRouter;
using overlay::EdgeId;

struct DirectedEdge {
  NodeIndex from;
  NodeIndex to;
  EdgeId edge;
};

/// Every traversable directed edge of the compiled arena — the set of
/// (consumer, provider) relations a routed debit can ever touch.
std::vector<DirectedEdge> directed_edges(const overlay::Topology& topo) {
  const CompiledRouter& router = topo.compiled();
  std::vector<DirectedEdge> out;
  for (NodeIndex u = 0; u < topo.node_count(); ++u) {
    const auto [begin, end] = router.node_edge_range(u);
    for (EdgeId e = begin; e < end; ++e) {
      const NodeIndex v = router.edge_target(e);
      if (v == CompiledRouter::kForeignPeer) continue;
      out.push_back({u, v, e});
    }
  }
  return out;
}

void expect_identical(const SwapNetwork& map, const Ledger& edge,
                      const overlay::Topology& topo, const char* when) {
  EXPECT_EQ(map.income(), edge.income()) << when;
  EXPECT_EQ(map.spent(), edge.spent()) << when;
  EXPECT_EQ(map.settlements(), edge.settlements()) << when;
  EXPECT_EQ(map.tick(), edge.tick()) << when;
  EXPECT_EQ(map.active_pairs(), edge.active_pairs()) << when;
  EXPECT_EQ(map.outstanding_debt(), edge.outstanding_debt()) << when;

  using PairBal = std::tuple<NodeIndex, NodeIndex, Token::rep>;
  std::vector<PairBal> map_pairs;
  std::vector<PairBal> edge_pairs;
  map.for_each_pair([&](NodeIndex lo, NodeIndex hi, Token bal) {
    map_pairs.emplace_back(lo, hi, bal.base_units());
  });
  edge.for_each_pair([&](NodeIndex lo, NodeIndex hi, Token bal) {
    edge_pairs.emplace_back(lo, hi, bal.base_units());
  });
  std::sort(map_pairs.begin(), map_pairs.end());
  std::sort(edge_pairs.begin(), edge_pairs.end());
  EXPECT_EQ(map_pairs, edge_pairs) << when;

  for (const DirectedEdge& de : directed_edges(topo)) {
    ASSERT_EQ(map.balance(de.to, de.from),
              edge.balance(de.to, de.from, de.edge))
        << when << " edge " << de.from << "->" << de.to;
  }
}

class LedgerEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LedgerEquivalence, RandomOperationSequences) {
  overlay::TopologyConfig tcfg;
  tcfg.node_count = 48;
  tcfg.address_bits = 10;
  tcfg.buckets.k = 3;
  Rng topo_rng(GetParam());
  const auto topo = overlay::Topology::build(tcfg, topo_rng);
  const auto edges = directed_edges(topo);
  ASSERT_FALSE(edges.empty());

  SwapConfig cfg;
  cfg.payment_threshold = Token(50);
  cfg.disconnect_threshold = Token(80);
  cfg.amortization_per_tick = Token(3);

  SwapNetwork map(topo.node_count(), cfg);
  Ledger edge(topo.compiled(), cfg);

  // Amount pool biased toward the interesting boundaries: exactly the
  // payment threshold (settles from zero), exactly the disconnect
  // threshold (the largest unsettled accrual), one past each, and zero.
  const Token::rep amounts[] = {0,  1,  7,  23, 49, 50, 51,
                                79, 80, 81, 100, 160};

  Rng rng(GetParam() ^ 0xabcdef);
  for (int op = 0; op < 6000; ++op) {
    switch (rng.next_below(8)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // debit along a random directed table edge
        const DirectedEdge& de = edges[rng.index(edges.size())];
        const Token amount(amounts[rng.index(std::size(amounts))]);
        const bool can_settle = rng.chance(0.5);
        const bool use_hint = rng.chance(0.5);
        const auto want = map.debit(de.from, de.to, amount, can_settle);
        const auto got = edge.debit(de.from, de.to, amount, can_settle,
                                    use_hint ? de.edge : overlay::kNoEdge);
        ASSERT_EQ(want, got) << "op " << op;
        break;
      }
      case 4: {  // direct payment between arbitrary (even unconnected) nodes
        const auto a = static_cast<NodeIndex>(rng.index(topo.node_count()));
        auto b = static_cast<NodeIndex>(rng.index(topo.node_count()));
        if (a == b) b = (b + 1) % static_cast<NodeIndex>(topo.node_count());
        const Token amount(amounts[rng.index(std::size(amounts))]);
        map.pay_direct(a, b, amount);
        edge.pay_direct(a, b, amount);
        break;
      }
      case 5: {  // protocol subsidy
        const auto n = static_cast<NodeIndex>(rng.index(topo.node_count()));
        map.mint(n, Token(13));
        edge.mint(n, Token(13));
        break;
      }
      case 6: {
        ASSERT_EQ(map.amortize_tick(), edge.amortize_tick()) << "op " << op;
        break;
      }
      case 7: {
        map.advance_tick();
        edge.advance_tick();
        break;
      }
    }
    if (op % 1000 == 999) expect_identical(map, edge, topo, "mid-run");
  }
  expect_identical(map, edge, topo, "final");
}

TEST_P(LedgerEquivalence, SaturatedDebtThenFullAmortization) {
  // Drive many pairs to the disconnect boundary without settling, then
  // amortize everything away: both ledgers must forgive identically and
  // end with zero active pairs.
  overlay::TopologyConfig tcfg;
  tcfg.node_count = 32;
  tcfg.address_bits = 9;
  tcfg.buckets.k = 4;
  Rng topo_rng(GetParam() ^ 0x77);
  const auto topo = overlay::Topology::build(tcfg, topo_rng);
  const auto edges = directed_edges(topo);

  SwapConfig cfg;
  cfg.payment_threshold = Token(50);
  cfg.disconnect_threshold = Token(80);
  cfg.amortization_per_tick = Token(7);

  SwapNetwork map(topo.node_count(), cfg);
  Ledger edge(topo.compiled(), cfg);

  Rng rng(GetParam() ^ 0x9999);
  for (int op = 0; op < 2000; ++op) {
    const DirectedEdge& de = edges[rng.index(edges.size())];
    const Token amount(static_cast<Token::rep>(rng.next_below(90)));
    ASSERT_EQ(map.debit(de.from, de.to, amount, false),
              edge.debit(de.from, de.to, amount, false, de.edge));
  }
  expect_identical(map, edge, topo, "after accrual");
  for (int tick = 0; tick < 15; ++tick) {
    ASSERT_EQ(map.amortize_tick(), edge.amortize_tick()) << "tick " << tick;
  }
  expect_identical(map, edge, topo, "after amortization");
  EXPECT_EQ(edge.active_pairs(), 0u);  // 15 ticks x 7 > disconnect threshold
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedgerEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace fairswap::accounting
