// The compiled routing hot path must be bit-identical to the greedy
// reference (RoutingTable::next_hop + ForwardingRouter) — these tests
// sweep the paper grid plus randomized topologies, exercise the packed
// and generic scan layouts, the dense and trie-backed storer lookups (each
// against the oracle's own trie or a brute-force XOR minimum), the
// batched walker, and the stale-table-entry (foreign address) regression.
#include "overlay/compiled_router.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "oracles/forwarding_router.hpp"

namespace fairswap::overlay {
namespace {

Topology make_topology(std::size_t nodes, std::size_t k, std::uint64_t seed,
                       int bits = 12) {
  TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = bits;
  cfg.buckets.k = k;
  Rng rng(seed);
  return Topology::build(cfg, rng);
}

/// The reference answer: the pruned table walk resolved through the
/// oracle's address hash, failing (nullopt) on a dead end or an address
/// outside the network.
std::optional<NodeIndex> reference_next_hop(const ForwardingRouter& oracle,
                                            NodeIndex from, Address target) {
  const auto peer = oracle.table(from).next_hop(target);
  if (!peer) return std::nullopt;
  return oracle.index_of(*peer);
}

/// The storer by brute force: the node at the least XOR distance.
NodeIndex brute_force_storer(const Topology& topo, Address target) {
  NodeIndex best = 0;
  for (NodeIndex i = 1; i < topo.node_count(); ++i) {
    if (xor_distance(topo.address_of(i), target) <
        xor_distance(topo.address_of(best), target)) {
      best = i;
    }
  }
  return best;
}

void expect_same_route(const Route& a, const Route& b, const char* what) {
  EXPECT_EQ(a.path, b.path) << what;
  EXPECT_EQ(a.target, b.target) << what;
  EXPECT_EQ(a.reached_storer, b.reached_storer) << what;
  EXPECT_EQ(a.truncated, b.truncated) << what;
}

TEST(CompiledRouter, NextHopMatchesReferenceAcrossRandomTopologies) {
  Rng rng(101);
  for (const auto& [nodes, k, bits] :
       {std::tuple<std::size_t, std::size_t, int>{30, 2, 8},
        {100, 4, 10},
        {250, 4, 12},
        {250, 20, 12},
        {400, 8, 14}}) {
    const auto topo = make_topology(nodes, k, rng.next(), bits);
    const ForwardingRouter oracle(topo);
    const auto& compiled = topo.compiled();
    for (int i = 0; i < 2000; ++i) {
      const auto from = static_cast<NodeIndex>(rng.index(topo.node_count()));
      const Address target{
          static_cast<AddressValue>(rng.next_below(topo.space().size()))};
      const auto expected = reference_next_hop(oracle, from, target);
      const NodeIndex got = compiled.next_hop(from, target);
      if (expected) {
        EXPECT_EQ(got, *expected) << "nodes=" << nodes << " k=" << k;
      } else {
        EXPECT_EQ(got, kNoNextHop) << "nodes=" << nodes << " k=" << k;
      }
    }
  }
}

TEST(CompiledRouter, RoutesBitIdenticalToGreedyOnPaperGrid) {
  for (const std::size_t k : {std::size_t{4}, std::size_t{20}}) {
    TopologyConfig cfg;
    cfg.node_count = 1000;
    cfg.address_bits = 16;
    cfg.buckets.k = k;
    Rng trng(kDefaultSeed);
    const auto topo = Topology::build(cfg, trng);
    const ForwardingRouter greedy(topo);
    const auto& compiled = topo.compiled();
    EXPECT_TRUE(compiled.packed());

    Rng rng(202 + k);
    for (int i = 0; i < 1500; ++i) {
      const auto origin = static_cast<NodeIndex>(rng.index(topo.node_count()));
      const Address chunk{
          static_cast<AddressValue>(rng.next_below(topo.space().size()))};
      expect_same_route(greedy.route(origin, chunk),
                        compiled.route(origin, chunk), "paper grid");
    }
  }
}

TEST(CompiledRouter, RoutesBitIdenticalOnRandomizedTopologies) {
  Rng rng(303);
  for (int t = 0; t < 6; ++t) {
    const std::size_t nodes = 40 + rng.index(300);
    const std::size_t k = 1 + rng.index(8);
    const int bits = 10 + static_cast<int>(rng.index(5));
    const auto topo = make_topology(nodes, k, rng.next(), bits);
    const ForwardingRouter greedy(topo);
    const auto& compiled = topo.compiled();
    for (int i = 0; i < 400; ++i) {
      const auto origin = static_cast<NodeIndex>(rng.index(topo.node_count()));
      const Address chunk{
          static_cast<AddressValue>(rng.next_below(topo.space().size()))};
      expect_same_route(greedy.route(origin, chunk),
                        compiled.route(origin, chunk), "randomized");
    }
  }
}

TEST(CompiledRouter, BatchedWalkerMatchesSequentialRoutes) {
  const auto topo = make_topology(300, 4, 7, 12);
  const auto& compiled = topo.compiled();
  Rng rng(404);
  // Batch sizes shrink and grow as consecutive files do. The span form
  // writes into the first n slots of one grow-only buffer, whose later
  // slots still hold an earlier batch's routes; the vector form resizes.
  std::vector<Route> buffer;
  std::vector<Route> resized;
  for (const std::size_t n : {std::size_t{700}, std::size_t{90},
                              std::size_t{700}, std::size_t{3}}) {
    std::vector<NodeIndex> origins;
    std::vector<Address> targets;
    for (std::size_t i = 0; i < n; ++i) {
      origins.push_back(static_cast<NodeIndex>(rng.index(topo.node_count())));
      targets.push_back(Address{
          static_cast<AddressValue>(rng.next_below(topo.space().size()))});
    }
    if (buffer.size() < n) buffer.resize(n);
    const std::span<Route> routes = std::span(buffer).first(n);
    compiled.route_batch(origins, targets, routes);
    compiled.route_batch(origins, targets, resized);
    ASSERT_EQ(resized.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const Route expected = compiled.route(origins[i], targets[i]);
      expect_same_route(expected, routes[i], "span batch");
      EXPECT_EQ(expected.edges, routes[i].edges) << "span batch";
      expect_same_route(expected, resized[i], "vector batch");
      EXPECT_EQ(expected.edges, resized[i].edges) << "vector batch";
    }
  }
}

TEST(CompiledRouter, GenericScanLayoutStaysEquivalent) {
  // 28-bit space leaves only 4 bits of slab index, which overflows with
  // full shallow buckets — forcing the two-pass generic scan, and the
  // space is too wide for the dense storer table, forcing the trie.
  const auto topo = make_topology(300, 4, 11, 28);
  const auto& compiled = topo.compiled();
  EXPECT_FALSE(compiled.packed());
  const ForwardingRouter greedy(topo);
  Rng rng(505);
  for (int i = 0; i < 600; ++i) {
    const auto origin = static_cast<NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    EXPECT_EQ(compiled.storer_of(chunk), brute_force_storer(topo, chunk));
    expect_same_route(greedy.route(origin, chunk),
                      compiled.route(origin, chunk), "generic layout");
  }
}

TEST(CompiledRouter, DenseStorerTableMatchesClosestNode) {
  // The table is filled by one walk of a trie; the oracle descends its
  // own trie once per address.
  const auto topo = make_topology(200, 4, 13, 12);
  const auto& compiled = topo.compiled();
  const ForwardingRouter oracle(topo);
  for (AddressValue v = 0; v < topo.space().size(); ++v) {
    ASSERT_EQ(compiled.storer_of(Address{v}), oracle.storer_of(Address{v}));
  }
}

TEST(CompiledRouter, MaxHopsTruncationIdenticalToGreedy) {
  const auto topo = make_topology(250, 4, 17, 12);
  const ForwardingRouter greedy(topo, /*max_hops=*/2);
  const auto& compiled = topo.compiled();
  Rng rng(606);
  bool saw_truncation = false;
  for (int i = 0; i < 500; ++i) {
    const auto origin = static_cast<NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    const auto a = greedy.route(origin, chunk);
    const auto b = compiled.route(origin, chunk, /*max_hops=*/2);
    expect_same_route(a, b, "max hops");
    saw_truncation = saw_truncation || a.truncated;
  }
  EXPECT_TRUE(saw_truncation);
}

/// Finds (node, address) such that the address belongs to no node, fits a
/// non-full bucket of the node's table, and is not stored by the node
/// itself — the stale/poisoned table entry of the regression below.
struct Injection {
  NodeIndex node{0};
  Address foreign{};
};

std::optional<Injection> find_injection(const Topology& topo) {
  const ForwardingRouter oracle(topo);
  std::unordered_set<AddressValue> taken;
  for (const Address a : topo.addresses()) taken.insert(a.v);
  for (AddressValue v = 0; v < topo.space().size(); ++v) {
    if (taken.contains(v)) continue;
    const Address f{v};
    const NodeIndex storer = oracle.storer_of(f);
    for (NodeIndex n = 0; n < topo.node_count(); ++n) {
      if (n == storer) continue;
      const int b = topo.space().bucket_index(topo.address_of(n), f);
      const RoutingTable& table = oracle.table(n);
      if (table.bucket_size(b) < table.policy().capacity(b)) {
        return Injection{n, f};
      }
    }
  }
  return std::nullopt;
}

TEST(CompiledRouter, ForeignTableEntryFailsRouteInsteadOfUB) {
  const auto clean = make_topology(60, 2, 19, 10);
  const auto injection = find_injection(clean);
  ASSERT_TRUE(injection.has_value());
  const auto poisoned =
      clean.with_table_entry(injection->node, injection->foreign);
  ASSERT_TRUE(poisoned);
  const Topology& topo = *poisoned;

  // Routing from the poisoned node toward the foreign address: the greedy
  // winner is the foreign entry itself (distance zero), which owns no
  // NodeIndex — both implementations must fail the route identically
  // rather than dereferencing a missing index.
  const ForwardingRouter greedy(topo);
  const auto& compiled = topo.compiled();
  const auto a = greedy.route(injection->node, injection->foreign);
  const auto b = compiled.route(injection->node, injection->foreign);
  expect_same_route(a, b, "foreign entry");
  EXPECT_FALSE(a.reached_storer);
  EXPECT_EQ(a.terminal(), injection->node)
      << "walk must stop at the stale entry";

  // Every other route in the poisoned topology still matches.
  Rng rng(707);
  for (int i = 0; i < 300; ++i) {
    const auto origin = static_cast<NodeIndex>(rng.index(topo.node_count()));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    expect_same_route(greedy.route(origin, chunk),
                      compiled.route(origin, chunk), "poisoned topology");
  }
}

TEST(CompiledRouter, InjectionRecompilesHotPath) {
  // Topology::build saturates every bucket with the available candidates,
  // so the only injectable entries are foreign addresses. Find one whose
  // bucket already holds a real peer: before injection the compiled path
  // answers with that peer; in the injected copy the (closer) stale entry
  // wins and the copy's compiled path must reflect its table.
  const auto topo = make_topology(120, 2, 23, 10);
  std::unordered_set<AddressValue> taken;
  for (const Address a : topo.addresses()) taken.insert(a.v);
  for (AddressValue v = 0; v < topo.space().size(); ++v) {
    if (taken.contains(v)) continue;
    const Address f{v};
    for (NodeIndex n = 0; n < topo.node_count(); ++n) {
      const int b = topo.space().bucket_index(topo.address_of(n), f);
      const RoutingTable table = topo.table(n);
      const std::size_t size = table.bucket_size(b);
      if (size < 1 || size >= table.policy().capacity(b)) continue;
      const NodeIndex before = topo.compiled().next_hop(n, f);
      ASSERT_NE(before, kNoNextHop);  // the bucket peer routes toward f
      const auto poisoned = topo.with_table_entry(n, f);
      ASSERT_TRUE(poisoned);
      // f is its own greedy winner (distance zero) and owns no index.
      EXPECT_EQ(poisoned->compiled().next_hop(n, f), kNoNextHop);
      return;
    }
  }
  FAIL() << "no injectable (node, address) pair found";
}

}  // namespace
}  // namespace fairswap::overlay
