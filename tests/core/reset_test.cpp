// Simulation::reset contract: a post-reset run is bit-identical to a
// freshly constructed Simulation with the same rng — for stateless and
// stateful policies — while reusing the topology's own compiled router
// (pointer identity: no per-epoch rebuild). This is what the agents epoch
// loop leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/simulation.hpp"
#include "overlay/topology.hpp"

namespace fairswap::core {
namespace {

overlay::Topology make_topology(std::size_t nodes = 80) {
  overlay::TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = 10;
  Rng rng(3);
  return overlay::Topology::build(cfg, rng);
}

using PairBalance = std::tuple<overlay::NodeIndex, overlay::NodeIndex,
                               Token::rep>;

std::vector<PairBalance> sorted_pairs(const accounting::Ledger& ledger) {
  std::vector<PairBalance> pairs;
  ledger.for_each_pair([&](overlay::NodeIndex lo, overlay::NodeIndex hi,
                           Token balance) {
    pairs.emplace_back(lo, hi, balance.base_units());
  });
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

void expect_equal_state(const Simulation& a, const Simulation& b) {
  EXPECT_EQ(a.totals(), b.totals());
  EXPECT_EQ(a.counters(), b.counters());
  EXPECT_EQ(a.free_riders(), b.free_riders());
  EXPECT_EQ(a.swap().income(), b.swap().income());
  EXPECT_EQ(a.swap().spent(), b.swap().spent());
  EXPECT_EQ(a.swap().settlements(), b.swap().settlements());
  EXPECT_EQ(a.swap().tick(), b.swap().tick());
  EXPECT_EQ(a.swap().active_pairs(), b.swap().active_pairs());
  EXPECT_EQ(sorted_pairs(a.swap()), sorted_pairs(b.swap()));
}

SimulationConfig busy_config(const std::string& policy) {
  SimulationConfig cfg;
  cfg.workload.min_chunks_per_file = 5;
  cfg.workload.max_chunks_per_file = 30;
  cfg.workload.upload_share = 0.2;
  cfg.policy = policy;
  cfg.free_rider_share = 0.15;
  cfg.cache_capacity = policy == "tit-for-tat" ? 8 : 0;
  cfg.amortize_each_step = true;
  cfg.swap.amortization_per_tick = Token(50);
  return cfg;
}

class ResetEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(ResetEquivalence, PostResetRunIsBitIdenticalToFreshConstruction) {
  const auto topo = make_topology();
  const auto cfg = busy_config(GetParam());

  // The reference: a simulation born with seed stream Rng(21).
  Simulation fresh(topo, cfg, Rng(21));
  fresh.run(30);

  // The subject: born with a *different* stream, run (dirtying counters,
  // balances, caches, policy state and the generator), then reset to
  // Rng(21).
  Simulation reused(topo, cfg, Rng(99));
  reused.run(30);
  const auto* router_before = reused.compiled_router();
  reused.reset(Rng(21));
  EXPECT_EQ(reused.compiled_router(), router_before);  // no rebuild

  // Freshly-reset state is the freshly-constructed state...
  expect_equal_state(reused, Simulation(topo, cfg, Rng(21)));

  // ...and so is everything downstream of it.
  reused.run(30);
  expect_equal_state(reused, fresh);
}

/// "tit-for-tat" -> "tit_for_tat": test names allow no '-'.
std::string policy_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

// Tit-for-tat keeps per-pair service state and runs with caches on, so the
// reset also has to clear policy state and caches.
INSTANTIATE_TEST_SUITE_P(PolicyMatrix, ResetEquivalence,
                         ::testing::Values(std::string("zero-proximity"),
                                           std::string("tit-for-tat"),
                                           std::string("per-hop-swap"),
                                           std::string("none")),
                         policy_name);

TEST(ResetTest, RouterAndTopologyArePointerStableAcrossManyResets) {
  const auto topo = make_topology(40);
  Simulation sim(topo, SimulationConfig{}, Rng(1));
  const auto* router = sim.compiled_router();
  EXPECT_EQ(router, &topo.compiled());
  for (int epoch = 0; epoch < 5; ++epoch) {
    sim.run(5);
    sim.reset(Rng(static_cast<std::uint64_t>(epoch)));
    EXPECT_EQ(sim.compiled_router(), router);
    EXPECT_EQ(&sim.topology(), &topo);
  }
}

TEST(ResetTest, SetBehaviorReplacesTheSampledFreeRiders) {
  const auto topo = make_topology(30);
  SimulationConfig cfg;
  cfg.free_rider_share = 0.5;
  Simulation sim(topo, cfg, Rng(2));

  std::vector<std::uint8_t> behavior(topo.node_count(), 0);
  behavior[3] = behavior[7] = 1;
  sim.set_behavior(behavior, /*refuse_service=*/false);
  EXPECT_EQ(sim.free_riders(), behavior);

  // reset() returns to the config's sampled free riders.
  sim.reset(Rng(2));
  std::size_t sampled = 0;
  for (const auto f : sim.free_riders()) sampled += f;
  EXPECT_EQ(sampled, 15u);  // round(0.5 * 30)

  std::vector<std::uint8_t> wrong_size(topo.node_count() + 1, 0);
  EXPECT_THROW(sim.set_behavior(wrong_size), std::invalid_argument);
}

TEST(ResetTest, RefusingServersTurnDeliveriesIntoRefusals) {
  const auto topo = make_topology(30);
  Simulation honest(topo, SimulationConfig{}, Rng(4));
  honest.run(20);
  EXPECT_EQ(honest.totals().refused, 0u);
  const auto delivered_baseline = honest.totals().delivered;
  ASSERT_GT(delivered_baseline, 0u);

  // Everyone refuses: the only deliveries left are the originators' own
  // local hits (a route with no servers has nobody to refuse).
  Simulation strike(topo, SimulationConfig{}, Rng(4));
  const std::vector<std::uint8_t> all(topo.node_count(), 1);
  strike.set_behavior(all, /*refuse_service=*/true);
  strike.run(20);
  EXPECT_GT(strike.totals().refused, 0u);
  EXPECT_EQ(strike.totals().delivered, strike.totals().local_hits);
  // The storer itself refuses, so the chunk never starts its way back:
  // nobody transmits, nobody earns.
  EXPECT_EQ(strike.totals().total_transmissions, 0u);
  for (const auto& income : strike.swap().income()) {
    EXPECT_EQ(income, Token(0));
  }

  // Without refuse_service the same flags only withhold payments: the
  // paper's classic free-rider semantics, deliveries unaffected.
  Simulation classic(topo, SimulationConfig{}, Rng(4));
  classic.set_behavior(all, /*refuse_service=*/false);
  classic.run(20);
  EXPECT_EQ(classic.totals().refused, 0u);
  EXPECT_EQ(classic.totals().delivered, delivered_baseline);
}

TEST(ResetTest, PartialRefusalCountsTheServesBehindTheRefusalPoint) {
  const auto topo = make_topology(50);
  Simulation sim(topo, SimulationConfig{}, Rng(6));
  std::vector<std::uint8_t> behavior(topo.node_count(), 0);
  for (std::size_t i = 0; i < behavior.size(); i += 3) behavior[i] = 1;
  sim.set_behavior(behavior, /*refuse_service=*/true);
  sim.run(25);

  const auto& totals = sim.totals();
  EXPECT_GT(totals.refused, 0u);
  EXPECT_GT(totals.delivered, totals.local_hits);  // clean routes still land
  // Route accounting stays exact under strategic refusal.
  EXPECT_EQ(totals.delivered + totals.refused + totals.failed_routes +
                totals.truncated_routes,
            totals.chunk_requests);
  // Refusing nodes never transmit; the serves on refused routes belong to
  // the sharers caught behind the refusal point, so total transmissions
  // exceed what delivered routes alone explain only via sharers.
  std::uint64_t rider_serves = 0;
  std::uint64_t sharer_serves = 0;
  for (std::size_t i = 0; i < behavior.size(); ++i) {
    (behavior[i] ? rider_serves : sharer_serves) +=
        sim.counters()[i].chunks_served;
  }
  EXPECT_EQ(rider_serves, 0u);
  EXPECT_GT(sharer_serves, 0u);
}

TEST(ResetTest, UploadRefusalWalksTheDataDirection) {
  // On an upload the chunk flows originator -> storer, so it dies at the
  // *lowest*-index refuser and only the relays before it handled it. The
  // refuser itself must never be credited — in either direction.
  const auto topo = make_topology(50);
  SimulationConfig cfg;
  cfg.workload.upload_share = 1.0;  // uploads only
  Simulation sim(topo, cfg, Rng(8));
  std::vector<std::uint8_t> behavior(topo.node_count(), 0);
  for (std::size_t i = 0; i < behavior.size(); i += 3) behavior[i] = 1;
  sim.set_behavior(behavior, /*refuse_service=*/true);
  sim.run(25);

  const auto& totals = sim.totals();
  EXPECT_GT(totals.refused, 0u);
  EXPECT_EQ(totals.delivered + totals.refused + totals.failed_routes +
                totals.truncated_routes,
            totals.chunk_requests);
  std::uint64_t rider_serves = 0;
  for (std::size_t i = 0; i < behavior.size(); ++i) {
    if (behavior[i]) rider_serves += sim.counters()[i].chunks_served;
  }
  EXPECT_EQ(rider_serves, 0u);

  // With every node refusing, an upload dies at the first hop: the
  // originator's own transmission is the only bandwidth spent, and (as
  // for downloads) the originator is never counted as a server.
  Simulation strike(topo, cfg, Rng(8));
  const std::vector<std::uint8_t> all(topo.node_count(), 1);
  strike.set_behavior(all, /*refuse_service=*/true);
  strike.run(25);
  EXPECT_EQ(strike.totals().total_transmissions, 0u);
  EXPECT_EQ(strike.totals().delivered, strike.totals().local_hits);
}

}  // namespace
}  // namespace fairswap::core
