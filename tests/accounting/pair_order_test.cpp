// Pins the canonical enumeration order of the pair ledgers: for_each_pair
// must visit active pairs in ascending (lo, hi) order on BOTH backends,
// regardless of the debit/settle/amortize history that produced them.
// This is the determinism contract behind every report/sink/equivalence
// consumer — hash-bucket or active-list order would leak memory layout
// into outputs (see docs/STATIC_ANALYSIS.md, "determinism rules").
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "accounting/ledger.hpp"
#include "common/ordered.hpp"
#include "common/rng.hpp"
#include "oracles/swap_network.hpp"
#include "overlay/compiled_router.hpp"
#include "overlay/topology.hpp"

namespace fairswap::accounting {
namespace {

using PairRow = std::tuple<NodeIndex, NodeIndex, Token>;

std::vector<PairRow> collect(const SwapNetwork& swap) {
  std::vector<PairRow> rows;
  swap.for_each_pair([&](NodeIndex lo, NodeIndex hi, Token bal) {
    rows.emplace_back(lo, hi, bal);
  });
  return rows;
}

std::vector<PairRow> collect(const Ledger& ledger) {
  std::vector<PairRow> rows;
  ledger.for_each_pair([&](NodeIndex lo, NodeIndex hi, Token bal) {
    rows.emplace_back(lo, hi, bal);
  });
  return rows;
}

void expect_canonical_order(const std::vector<PairRow>& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_LT(std::get<0>(rows[i]), std::get<1>(rows[i]))
        << "row " << i << " is not (lo, hi)";
    if (i > 0) {
      const auto prev =
          std::make_pair(std::get<0>(rows[i - 1]), std::get<1>(rows[i - 1]));
      const auto cur =
          std::make_pair(std::get<0>(rows[i]), std::get<1>(rows[i]));
      EXPECT_LT(prev, cur) << "rows " << i - 1 << " and " << i
                           << " are out of canonical order";
    }
  }
}

TEST(PairOrder, SwapNetworkVisitsPairsInAscendingLoHiOrder) {
  SwapConfig cfg;
  cfg.payment_threshold = Token(1'000'000);
  cfg.disconnect_threshold = Token(1'500'000);
  SwapNetwork swap(16, cfg);

  // Deliberately scrambled insertion order; (9,2) also exercises the
  // consumer<->provider normalization.
  swap.debit(7, 3, Token(10));
  swap.debit(1, 14, Token(20));
  swap.debit(9, 2, Token(30));
  swap.debit(0, 15, Token(40));
  swap.debit(4, 5, Token(50));
  swap.debit(1, 2, Token(60));

  const std::vector<PairRow> rows = collect(swap);
  ASSERT_EQ(rows.size(), 6u);
  expect_canonical_order(rows);

  // Exact pinned sequence: ascending (lo, hi).
  const std::vector<std::pair<NodeIndex, NodeIndex>> expected = {
      {0, 15}, {1, 2}, {1, 14}, {2, 9}, {3, 7}, {4, 5}};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::get<0>(rows[i]), expected[i].first);
    EXPECT_EQ(std::get<1>(rows[i]), expected[i].second);
  }
}

TEST(PairOrder, SwapNetworkOrderSurvivesChurnAndRehash) {
  SwapConfig cfg;
  cfg.payment_threshold = Token(1'000'000);
  cfg.disconnect_threshold = Token(1'500'000);
  SwapNetwork swap(512, cfg);

  // Enough scrambled churn (insert, cancel-to-zero, reinsert) to force
  // rehashes and erase/reinsert bucket movement.
  Rng rng(1234);
  for (int round = 0; round < 2'000; ++round) {
    const auto a = static_cast<NodeIndex>(rng.index(512));
    auto b = static_cast<NodeIndex>(rng.index(512));
    if (a == b) b = (b + 1) % 512;
    swap.debit(a, b, Token(1 + static_cast<std::int64_t>(round % 97)));
    if (round % 3 == 0) {
      // Opposite-direction debit, sometimes cancelling a pair to zero.
      swap.debit(b, a, Token(1 + static_cast<std::int64_t>(round % 97)));
    }
  }
  expect_canonical_order(collect(swap));
}

TEST(PairOrder, EdgeLedgerMatchesSwapNetworkEnumeration) {
  overlay::TopologyConfig topo_cfg;
  topo_cfg.node_count = 64;
  topo_cfg.address_bits = 10;
  topo_cfg.buckets.k = 4;
  Rng rng(7);
  const auto topo = std::make_unique<overlay::Topology>(
      overlay::Topology::build(topo_cfg, rng));
  const overlay::CompiledRouter& router = topo->compiled();

  SwapConfig cfg;
  cfg.payment_threshold = Token(1'000'000);
  cfg.disconnect_threshold = Token(1'500'000);
  Ledger edge(router, cfg);
  SwapNetwork swap(topo->node_count(), cfg);

  // Debit along real arena edges (both ledgers accept those), in edge-id
  // order scrambled by a stride, with some reverse debits to move slots
  // on/off the active list (swap-with-last reordering).
  const auto n = static_cast<NodeIndex>(topo->node_count());
  int debits = 0;
  for (NodeIndex u = 0; u < n; ++u) {
    const auto [begin, end] = router.node_edge_range(u);
    for (overlay::EdgeId e = begin; e < end; ++e) {
      const NodeIndex v = router.edge_target(e);
      if (v == overlay::CompiledRouter::kForeignPeer || v == u) continue;
      const Token amount(1 + (debits * 37) % 211);
      edge.debit(u, v, amount, /*can_settle=*/false, e);
      swap.debit(u, v, amount, /*can_settle=*/false);
      if (debits % 5 == 0) {
        // Cancel back to zero: deactivates the slot mid-list.
        edge.debit(v, u, amount, /*can_settle=*/false);
        swap.debit(v, u, amount, /*can_settle=*/false);
      }
      ++debits;
    }
  }
  ASSERT_GT(debits, 100);

  const std::vector<PairRow> edge_rows = collect(edge);
  const std::vector<PairRow> swap_rows = collect(swap);
  expect_canonical_order(edge_rows);
  expect_canonical_order(swap_rows);
  // Same pairs, same balances, same order: the two backends are
  // enumeration-identical, not merely set-identical.
  EXPECT_EQ(edge_rows, swap_rows);
}

TEST(PairOrder, OrderedHelpersSortKeysItemsAndValues) {
  std::unordered_map<std::uint64_t, int> map;
  map[9] = 90;
  map[1] = 10;
  map[5] = 50;
  EXPECT_EQ(common::ordered_keys(map),
            (std::vector<std::uint64_t>{1, 5, 9}));
  const auto items = common::ordered_items(map);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], (std::pair<std::uint64_t, int>{1, 10}));
  EXPECT_EQ(items[2], (std::pair<std::uint64_t, int>{9, 90}));

  std::vector<std::uint64_t> visited;
  common::for_each_ordered(map, [&](std::uint64_t k, int v) {
    visited.push_back(k);
    EXPECT_EQ(static_cast<int>(k * 10), v);
  });
  EXPECT_EQ(visited, (std::vector<std::uint64_t>{1, 5, 9}));

  std::unordered_set<int> set{7, 3, 11};
  EXPECT_EQ(common::ordered_values(set), (std::vector<int>{3, 7, 11}));
}

}  // namespace
}  // namespace fairswap::accounting
