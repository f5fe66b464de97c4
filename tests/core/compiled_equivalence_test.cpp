// The simulation — compiled routing (including the batched per-file
// walker) over the edge-arena Ledger — must produce bit-identical results
// to the reference run (tests/oracles/reference_run.hpp): the
// Address-keyed greedy walk, whose edge-less routes a fresh Ledger
// accounts by scanning for each balance slot. Same NodeCounters, same
// SimulationTotals, same incomes, same settlement logs and balances —
// across the full paper grid and randomized topologies.
// ledger_equivalence_test pins the Ledger to the hash-map SwapNetwork it
// replaced, with and without edge ids; together the two suites cover the
// old (greedy walk, hash-map ledger) configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>
#include <unordered_set>

#include "common/rng.hpp"
#include "core/scenarios.hpp"
#include "core/simulation.hpp"
#include "oracles/reference_run.hpp"

namespace fairswap::core {
namespace {

overlay::Topology make_topology(std::size_t nodes, std::size_t k,
                                std::uint64_t seed, int bits = 12) {
  overlay::TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = bits;
  cfg.buckets.k = k;
  Rng rng(seed);
  return overlay::Topology::build(cfg, rng);
}

/// Asserts a finished simulation and reference run agree on every
/// observable, including the full SWAP ledger state (not just settlement
/// counts).
void expect_same_observables(const Simulation& a, const ReferenceRun& b,
                             const char* what) {
  EXPECT_EQ(a.totals(), b.totals()) << what;
  EXPECT_EQ(a.counters(), b.counters()) << what;
  EXPECT_EQ(a.free_riders(), b.free_riders()) << what;
  EXPECT_EQ(a.income_per_node(), b.income_per_node()) << what;
  EXPECT_EQ(a.swap().income(), b.swap().income()) << what;
  EXPECT_EQ(a.swap().spent(), b.swap().spent()) << what;
  EXPECT_EQ(a.swap().settlements(), b.swap().settlements()) << what;
  EXPECT_EQ(a.swap().outstanding_debt(), b.swap().outstanding_debt()) << what;
  EXPECT_EQ(a.swap().active_pairs(), b.swap().active_pairs()) << what;

  using PairBal = std::tuple<NodeIndex, NodeIndex, Token::rep>;
  std::vector<PairBal> a_pairs;
  std::vector<PairBal> b_pairs;
  a.swap().for_each_pair([&](NodeIndex lo, NodeIndex hi, Token bal) {
    a_pairs.emplace_back(lo, hi, bal.base_units());
  });
  b.swap().for_each_pair([&](NodeIndex lo, NodeIndex hi, Token bal) {
    b_pairs.emplace_back(lo, hi, bal.base_units());
  });
  std::sort(a_pairs.begin(), a_pairs.end());
  std::sort(b_pairs.begin(), b_pairs.end());
  EXPECT_EQ(a_pairs, b_pairs) << what;
}

/// Runs the same (topology, config, seed) through the simulation and the
/// reference run and asserts every observable is identical, and that the
/// simulation routed each file as one batch, relay caches or not.
void expect_equivalent(const overlay::Topology& topo,
                       const SimulationConfig& cfg, std::uint64_t seed,
                       std::size_t files, const char* what) {
  Simulation sim(topo, cfg, Rng(seed));
  ReferenceRun reference(topo, cfg, Rng(seed));
  sim.run(files);
  reference.run(files);
  expect_same_observables(sim, reference, what);
  EXPECT_EQ(sim.telem().value(telemetry::Counter::kRouteBatches), files)
      << what;
  EXPECT_EQ(sim.telem().value(telemetry::Counter::kRouteWalks),
            sim.totals().chunk_requests)
      << what;
}

TEST(CompiledEquivalence, FullPaperGrid) {
  // The paper's 2x2 grid (1000 nodes, 16-bit space) at a reduced file
  // count; the topology is shared per k, as in the benches.
  for (const std::size_t k : {std::size_t{4}, std::size_t{20}}) {
    const auto grid_cfg = paper_config(k, 1.0, 1, kDefaultSeed);
    Rng trng(kDefaultSeed);
    Rng topo_rng = trng.split(0);
    const auto topo = overlay::Topology::build(grid_cfg.topology, topo_rng);
    for (const double share : {0.2, 1.0}) {
      auto cfg = paper_config(k, share, 1, kDefaultSeed).sim;
      expect_equivalent(topo, cfg, kDefaultSeed + k, 25,
                        scenario_label(k, share).c_str());
    }
  }
}

TEST(CompiledEquivalence, RandomizedTopologiesAndSeeds) {
  Rng rng(42);
  for (int t = 0; t < 5; ++t) {
    const std::size_t nodes = 50 + rng.index(250);
    const std::size_t k = 1 + rng.index(8);
    const int bits = 10 + static_cast<int>(rng.index(4));
    const auto topo = make_topology(nodes, k, rng.next(), bits);
    SimulationConfig cfg;
    cfg.workload.min_chunks_per_file = 10;
    cfg.workload.max_chunks_per_file = 60;
    expect_equivalent(topo, cfg, rng.next(), 25, "randomized");
  }
}

TEST(CompiledEquivalence, PolicyAndWorkloadVariants) {
  const auto topo = make_topology(150, 4, 5);
  SimulationConfig base;
  base.workload.min_chunks_per_file = 10;
  base.workload.max_chunks_per_file = 40;

  auto uploads = base;
  uploads.workload.upload_share = 0.4;
  expect_equivalent(topo, uploads, 91, 25, "uploads");

  auto riders = base;
  riders.free_rider_share = 0.3;
  expect_equivalent(topo, riders, 92, 25, "free riders");

  auto per_hop = base;
  per_hop.policy = "per-hop-swap";
  expect_equivalent(topo, per_hop, 93, 25, "per-hop policy");

  auto tft = base;
  tft.policy = "tit-for-tat";
  expect_equivalent(topo, tft, 94, 25, "tit-for-tat");

  auto effort = base;
  effort.policy = "effort-based";
  expect_equivalent(topo, effort, 90, 25, "effort-based policy");

  // Per-step amortization exercises the ledgers' active-list walk (the
  // edge ledger touches only nonzero slots; results must still match).
  auto amortized = base;
  amortized.policy = "per-hop-swap";
  amortized.amortize_each_step = true;
  amortized.swap.payment_threshold = Token(40);
  amortized.swap.disconnect_threshold = Token(60);
  amortized.swap.amortization_per_tick = Token(5);
  amortized.free_rider_share = 0.25;  // unsettled debt for amortization to eat
  expect_equivalent(topo, amortized, 89, 25, "amortization");

  // With caching on, each batched route is cut, in request order, at the
  // first relay cache that holds the chunk, while the reference probes
  // each cache as its walk passes. Equivalence must hold there too, with
  // both sides short-circuiting at the same relay caches.
  auto cached = base;
  cached.cache_capacity = 32;
  cached.workload.catalog_size = 100;
  cached.workload.catalog_zipf_alpha = 1.1;
  expect_equivalent(topo, cached, 95, 40, "caching");

  // Under a hop cap the reference probes a truncated route's last node
  // before it gives up, so a cache hit there delivers the chunk.
  auto cached_capped = cached;
  cached_capped.max_route_hops = 2;
  expect_equivalent(topo, cached_capped, 88, 40, "caching, hop cap");
}

TEST(CompiledEquivalence, HopCapTruncationCountsSeparately) {
  const auto topo = make_topology(250, 4, 6);
  SimulationConfig cfg;
  cfg.workload.min_chunks_per_file = 10;
  cfg.workload.max_chunks_per_file = 40;
  cfg.max_route_hops = 1;  // nearly every multi-hop route truncates
  expect_equivalent(topo, cfg, 96, 25, "hop cap");

  Simulation sim(topo, cfg, Rng(96));
  sim.run(25);
  const auto& t = sim.totals();
  EXPECT_GT(t.truncated_routes, 0u);
  EXPECT_EQ(t.delivered + t.refused + t.failed_routes + t.truncated_routes,
            t.chunk_requests);
  // With the cap lifted the same workload truncates nothing.
  SimulationConfig uncapped = cfg;
  uncapped.max_route_hops = 0;
  Simulation free_sim(topo, uncapped, Rng(96));
  free_sim.run(25);
  EXPECT_EQ(free_sim.totals().truncated_routes, 0u);
}

/// Finds an unassigned address that fits a non-full bucket of a node
/// that does not store it — an injectable stale table entry.
bool find_injectable_foreign(const overlay::Topology& topo,
                             overlay::NodeIndex& node, Address& foreign) {
  const overlay::ForwardingRouter oracle(topo);
  std::unordered_set<AddressValue> taken;
  for (const Address a : topo.addresses()) taken.insert(a.v);
  for (AddressValue v = 0; v < topo.space().size(); ++v) {
    if (taken.contains(v)) continue;
    const Address f{v};
    const auto storer = oracle.storer_of(f);
    for (overlay::NodeIndex n = 0; n < topo.node_count(); ++n) {
      if (n == storer) continue;
      const int b = topo.space().bucket_index(topo.address_of(n), f);
      const overlay::RoutingTable& table = oracle.table(n);
      if (table.bucket_size(b) < table.policy().capacity(b)) {
        node = n;
        foreign = f;
        return true;
      }
    }
  }
  return false;
}

TEST(CompiledEquivalence, ForeignTableEntryCountsAsFailedRoute) {
  const auto clean = make_topology(60, 2, 7, 10);
  // Regression: routing onto a table address no network member owns used
  // to dereference a missing index — UB — instead of failing the route.
  overlay::NodeIndex node = 0;
  Address foreign{};
  ASSERT_TRUE(find_injectable_foreign(clean, node, foreign));
  const auto poisoned = clean.with_table_entry(node, foreign);
  ASSERT_TRUE(poisoned);
  const overlay::Topology& topo = *poisoned;

  workload::DownloadRequest request;
  request.originator = node;
  request.chunks = {foreign};  // the walk's greedy winner is the stale entry
  Simulation sim(topo, SimulationConfig{}, Rng(97));
  ReferenceRun reference(topo, SimulationConfig{}, Rng(97));
  sim.apply(request);
  reference.apply(request);
  for (const SimulationTotals& t : {sim.totals(), reference.totals()}) {
    EXPECT_EQ(t.failed_routes, 1u);
    EXPECT_EQ(t.delivered, 0u);
    EXPECT_EQ(t.truncated_routes, 0u);
  }
  expect_same_observables(sim, reference, "foreign table entry");
}

TEST(CompiledEquivalence, FreeRiderShareRoundsToNearest) {
  // 10% of 999 nodes must select 100 (nearest), not the 99 truncation
  // gives; 201 nodes at 25% must select 50 (50.25 rounds down).
  const auto topo999 = make_topology(999, 4, 8);
  SimulationConfig cfg;
  cfg.free_rider_share = 0.1;
  Simulation sim(topo999, cfg, Rng(98));
  const auto& riders = sim.free_riders();
  EXPECT_EQ(std::accumulate(riders.begin(), riders.end(), std::size_t{0}),
            100u);

  const auto topo201 = make_topology(201, 4, 9);
  SimulationConfig cfg2;
  cfg2.free_rider_share = 0.25;
  Simulation sim2(topo201, cfg2, Rng(99));
  const auto& riders2 = sim2.free_riders();
  EXPECT_EQ(std::accumulate(riders2.begin(), riders2.end(), std::size_t{0}),
            50u);
}

}  // namespace
}  // namespace fairswap::core
