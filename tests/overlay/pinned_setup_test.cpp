// Set-up pinned to hashes: Topology::build, the compiled router, the
// agents' neighbor lists and the ledger's pair numbering. Each cell folds
// everything a run reads from set-up into one FNV-1a hash: the addresses,
// every bucket's peers in order, the arena's slab boundaries and edge
// targets, the storer_of values, the Rng's next draw after build, the
// neighbor lists, and the ledger pair each edge's debit lands on. A change
// to the bucket sampling, the order of Rng draws, the arena layout or the
// pair numbering moves a hash; a pure speed-up must not.
//
// The paper goldens (tests/golden/) cover the paper grid and the two
// ablations; these cells add the scale, boundary and wide-space layouts
// the goldens miss.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "accounting/ledger.hpp"
#include "agents/dynamics.hpp"
#include "common/rng.hpp"
#include "overlay/compiled_router.hpp"
#include "overlay/topology.hpp"

namespace fairswap::overlay {
namespace {

/// FNV-1a, 64-bit, folding each value's low `bytes` bytes.
class Fnv {
 public:
  void add(std::uint64_t v, int bytes = 8) noexcept {
    for (int byte = 0; byte < bytes; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add32(std::uint32_t v) noexcept { add(v, 4); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

/// Debits every arena edge once, each with its own amount (edge id + 1),
/// so no pair's balance cancels to zero. Folding each edge's balance and
/// then every pair in canonical order pins which pair each edge resolves
/// to, and every pair's (lo, hi) in the ledger's slot order.
void add_ledger_pairs(Fnv& fnv, const CompiledRouter& router) {
  accounting::SwapConfig swap;
  swap.payment_threshold = Token(std::numeric_limits<Token::rep>::max() / 4);
  swap.disconnect_threshold = swap.payment_threshold;
  accounting::Ledger ledger(router, swap);
  const auto nodes = static_cast<NodeIndex>(router.node_count());
  for (NodeIndex u = 0; u < nodes; ++u) {
    const auto [begin, end] = router.node_edge_range(u);
    for (EdgeId e = begin; e < end; ++e) {
      const NodeIndex v = router.edge_target(e);
      if (v == CompiledRouter::kForeignPeer) continue;
      ledger.debit(u, v, Token(static_cast<Token::rep>(e) + 1), false, e);
    }
  }
  for (NodeIndex u = 0; u < nodes; ++u) {
    const auto [begin, end] = router.node_edge_range(u);
    for (EdgeId e = begin; e < end; ++e) {
      const NodeIndex v = router.edge_target(e);
      if (v == CompiledRouter::kForeignPeer) continue;
      const Token bal = ledger.balance(u, v, e);
      fnv.add(static_cast<std::uint64_t>(bal.base_units()));
    }
  }
  fnv.add(ledger.pair_count());
  fnv.add(ledger.active_pairs());
  ledger.for_each_pair([&fnv](NodeIndex lo, NodeIndex hi, Token bal) {
    fnv.add32(lo);
    fnv.add32(hi);
    fnv.add(static_cast<std::uint64_t>(bal.base_units()));
  });
}

std::uint64_t setup_hash(std::size_t nodes, int bits, std::size_t k,
                         std::uint64_t seed, std::size_t k_bucket0 = 0) {
  TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = bits;
  cfg.buckets.k = k;
  cfg.buckets.k_bucket0 = k_bucket0;
  Rng rng(seed);
  const Topology topo = Topology::build(cfg, rng);
  const CompiledRouter& router = topo.compiled();

  Fnv fnv;
  for (const Address a : topo.addresses()) fnv.add32(a.v);
  for (NodeIndex n = 0; n < topo.node_count(); ++n) {
    const RoutingTable& table = topo.table(n);
    for (int b = 0; b < table.bucket_count(); ++b) {
      fnv.add(table.bucket_size(b));
      for (const Address peer : table.bucket(b)) fnv.add32(peer.v);
    }
  }

  fnv.add(router.edge_count());
  for (NodeIndex n = 0; n < topo.node_count(); ++n) {
    fnv.add32(router.node_edge_range(n).first);
  }
  for (EdgeId e = 0; e < router.edge_count(); ++e) {
    fnv.add32(router.edge_target(e));
  }
  // Every address of a dense storer table; past it (the trie answers),
  // one address in 16, its low bits rotating, keeps the cell fast.
  const std::uint64_t space = std::uint64_t{1} << bits;
  const std::uint64_t stride =
      bits > CompiledRouter::kDenseStorerBits ? 16 : 1;
  for (std::uint64_t i = 0; i < space / stride; ++i) {
    const std::uint64_t a = i * stride + (stride > 1 ? i % stride : 0);
    fnv.add32(router.storer_of(Address{static_cast<AddressValue>(a)}));
  }

  fnv.add(rng.next());

  for (const auto& peers : agents::neighbor_lists(topo)) {
    fnv.add(peers.size());
    for (const NodeIndex p : peers) fnv.add32(p);
  }

  add_ledger_pairs(fnv, router);
  return fnv.value();
}

TEST(PinnedSetup, PaperK4) {
  EXPECT_EQ(setup_hash(1000, 16, 4, 11), 0x4cbd8513037d2a08ULL);
}

TEST(PinnedSetup, PaperK20) {
  EXPECT_EQ(setup_hash(1000, 16, 20, 12), 0x7f131db2b8052ca9ULL);
}

TEST(PinnedSetup, PaperBucket0K8) {
  EXPECT_EQ(setup_hash(1000, 16, 4, 13, 8), 0x6e73c17f5a519f7aULL);
}

TEST(PinnedSetup, Nodes2000Bits18) {
  EXPECT_EQ(setup_hash(2000, 18, 4, 14), 0xb1cd1a7357fc2622ULL);
}

TEST(PinnedSetup, Nodes10000Bits20) {
  EXPECT_EQ(setup_hash(10'000, 20, 4, 15), 0x2021015e0fffd11dULL);
}

TEST(PinnedSetup, FullEightBitSpace) {
  EXPECT_EQ(setup_hash(256, 8, 4, 16), 0xe7a58244255873c5ULL);
}

TEST(PinnedSetup, TwoNodesOnOneBit) {
  EXPECT_EQ(setup_hash(2, 1, 4, 17), 0x5bde749e9335a9c8ULL);
}

TEST(PinnedSetup, KAboveEveryPool) {
  // k = 64 over 64 nodes: every bucket keeps its whole candidate pool.
  EXPECT_EQ(setup_hash(64, 10, 64, 18), 0xd11b91ffacfa65d0ULL);
}

TEST(PinnedSetup, Bits22LastDenseStorerTable) {
  EXPECT_EQ(setup_hash(500, 22, 4, 19), 0x8af2d2c36c260cefULL);
}

TEST(PinnedSetup, Bits24TrieStorer) {
  EXPECT_EQ(setup_hash(300, 24, 4, 20), 0x92c6c50d00bea900ULL);
}

TEST(PinnedSetup, SampleWithoutReplacementGrid) {
  // One running stream over the grid: each call's indices, then a draw
  // that shows how much of the stream the call consumed.
  Rng rng(21);
  Fnv fnv;
  for (const std::size_t n : {0, 1, 2, 5, 8, 17, 100, 1000, 4096}) {
    for (const std::size_t count : {0, 1, 3, 4, 20, 64, 1000, 5000}) {
      const auto picks = rng.sample_without_replacement(n, count);
      fnv.add(picks.size());
      for (const std::size_t p : picks) fnv.add(p);
      fnv.add(rng.next());
    }
  }
  EXPECT_EQ(fnv.value(), 0xbb22f74c8962112dULL);
}

}  // namespace
}  // namespace fairswap::overlay
