#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"

namespace fairswap::core {
namespace {

overlay::Topology make_topology(std::size_t nodes = 200, std::size_t k = 4,
                                std::uint64_t seed = 1) {
  overlay::TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = 12;
  cfg.buckets.k = k;
  Rng rng(seed);
  return overlay::Topology::build(cfg, rng);
}

SimulationConfig fast_config() {
  SimulationConfig cfg;
  cfg.workload.min_chunks_per_file = 10;
  cfg.workload.max_chunks_per_file = 50;
  return cfg;
}

TEST(Simulation, StepProcessesOneFile) {
  const auto topo = make_topology();
  Simulation sim(topo, fast_config(), Rng(2));
  sim.step();
  EXPECT_EQ(sim.totals().files, 1u);
  EXPECT_GE(sim.totals().chunk_requests, 10u);
  EXPECT_LE(sim.totals().chunk_requests, 50u);
}

TEST(Simulation, RunAccumulatesFiles) {
  const auto topo = make_topology();
  Simulation sim(topo, fast_config(), Rng(3));
  sim.run(20);
  EXPECT_EQ(sim.totals().files, 20u);
}

TEST(Simulation, RequestAccountingConserved) {
  const auto topo = make_topology();
  Simulation sim(topo, fast_config(), Rng(4));
  sim.run(30);
  const auto& t = sim.totals();
  EXPECT_EQ(t.delivered + t.refused + t.failed_routes + t.truncated_routes,
            t.chunk_requests);
}

TEST(Simulation, TransmissionsMatchPerNodeCounters) {
  const auto topo = make_topology();
  Simulation sim(topo, fast_config(), Rng(5));
  sim.run(30);
  const auto served = sim.served_per_node();
  const auto total =
      std::accumulate(served.begin(), served.end(), std::uint64_t{0});
  EXPECT_EQ(total, sim.totals().total_transmissions);
}

TEST(Simulation, FirstHopCountsBoundedByServed) {
  const auto topo = make_topology();
  Simulation sim(topo, fast_config(), Rng(6));
  sim.run(30);
  const auto served = sim.served_per_node();
  const auto first = sim.first_hop_per_node();
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_LE(first[i], served[i]);
  }
}

TEST(Simulation, DeterministicAcrossIdenticalRuns) {
  const auto topo = make_topology();
  Simulation a(topo, fast_config(), Rng(7));
  Simulation b(topo, fast_config(), Rng(7));
  a.run(15);
  b.run(15);
  EXPECT_EQ(a.totals().chunk_requests, b.totals().chunk_requests);
  EXPECT_EQ(a.served_per_node(), b.served_per_node());
  EXPECT_EQ(a.income_per_node(), b.income_per_node());
}

TEST(Simulation, ZeroProximityIncomeOnlyFromDirectPayments) {
  const auto topo = make_topology();
  Simulation sim(topo, fast_config(), Rng(8));
  sim.run(30);
  // Under the paper's default policy every settlement is a direct
  // payment from an originator; settlements == paid first-hop deliveries.
  const auto first = sim.first_hop_per_node();
  const auto paid_deliveries =
      std::accumulate(first.begin(), first.end(), std::uint64_t{0});
  EXPECT_EQ(sim.swap().settlements().size(), paid_deliveries);
}

TEST(Simulation, IncomeGoesOnlyToFirstHopServers) {
  const auto topo = make_topology();
  Simulation sim(topo, fast_config(), Rng(9));
  sim.run(30);
  const auto first = sim.first_hop_per_node();
  const auto income = sim.income_per_node();
  for (std::size_t i = 0; i < income.size(); ++i) {
    if (income[i] > 0) {
      EXPECT_GT(first[i], 0u) << "node " << i;
    }
    if (first[i] > 0) {
      EXPECT_GT(income[i], 0.0) << "node " << i;
    }
  }
}

TEST(Simulation, RelayDebtIsTracked) {
  const auto topo = make_topology();
  Simulation sim(topo, fast_config(), Rng(10));
  sim.run(30);
  // Multi-hop routes leave unsettled relay debt behind.
  EXPECT_GT(sim.swap().outstanding_debt(), Token(0));
}

TEST(Simulation, AmortizationDrainsRelayDebt) {
  const auto topo = make_topology();
  auto cfg = fast_config();
  cfg.amortize_each_step = true;
  cfg.swap.amortization_per_tick = Token(1'000'000'000);
  Simulation sim(topo, cfg, Rng(11));
  sim.run(5);
  // With an enormous per-tick allowance every balance returns to zero at
  // the end of each step.
  EXPECT_TRUE(sim.swap().outstanding_debt().is_zero());
}

TEST(Simulation, LocalHitsNeitherPayNorTransmit) {
  // tiny net -> frequent local hits
  const auto topo = make_topology(30, 4, 12);
  auto cfg = fast_config();
  Simulation sim(topo, cfg, Rng(12));
  sim.run(50);
  EXPECT_GT(sim.totals().local_hits, 0u);
  // Every local hit was delivered without transmissions.
  EXPECT_LE(sim.totals().total_transmissions,
            (sim.totals().delivered - sim.totals().local_hits) *
                (static_cast<std::uint64_t>(topo.space().bits()) * 4));
}

TEST(Simulation, TraceReplayMatchesGeneratedRun) {
  const auto topo = make_topology();
  auto cfg = fast_config();
  Simulation recorded(topo, cfg, Rng(13));
  // Generate the same workload stream separately and replay it.
  Rng root(13);
  Rng workload_rng = root.split(1);
  workload::DownloadGenerator gen(topo, cfg.workload, workload_rng);
  // different seed: ignored by apply()
  Simulation replayed(topo, cfg, Rng(99));
  for (int i = 0; i < 10; ++i) {
    recorded.step();
    replayed.apply(gen.next());
  }
  EXPECT_EQ(recorded.served_per_node(), replayed.served_per_node());
  EXPECT_EQ(recorded.income_per_node(), replayed.income_per_node());
}

TEST(Simulation, FreeRiderShareMarksNodes) {
  const auto topo = make_topology();
  auto cfg = fast_config();
  cfg.free_rider_share = 0.25;
  Simulation sim(topo, cfg, Rng(14));
  const auto& riders = sim.free_riders();
  const auto count =
      std::accumulate(riders.begin(), riders.end(), std::size_t{0});
  EXPECT_EQ(count, topo.node_count() / 4);
}

TEST(Simulation, FreeRiderShareOutsideUnitIntervalThrows) {
  const auto topo = make_topology();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double share : {1.5, -0.1, kNaN}) {
    auto cfg = fast_config();
    cfg.free_rider_share = share;
    EXPECT_THROW(Simulation(topo, cfg, Rng(14)), std::invalid_argument)
        << share;
  }
  for (const double share : {0.0, 1.0}) {
    auto cfg = fast_config();
    cfg.free_rider_share = share;
    Simulation sim(topo, cfg, Rng(14));
    sim.run(3);
    const auto& riders = sim.free_riders();
    EXPECT_EQ(std::accumulate(riders.begin(), riders.end(), std::size_t{0}),
              share == 0.0 ? 0 : topo.node_count());
    EXPECT_EQ(sim.totals().files, 3u);
  }
}

TEST(Simulation, FreeRidersReduceTotalIncome) {
  const auto topo = make_topology();
  auto honest_cfg = fast_config();
  auto rider_cfg = fast_config();
  rider_cfg.free_rider_share = 0.5;
  Simulation honest(topo, honest_cfg, Rng(15));
  Simulation riders(topo, rider_cfg, Rng(15));
  honest.run(40);
  riders.run(40);
  const auto total_income = [](const Simulation& s) {
    double total = 0;
    for (const double v : s.income_per_node()) total += v;
    return total;
  };
  EXPECT_LT(total_income(riders), total_income(honest));
}

TEST(Simulation, CachingReducesTransmissions) {
  const auto topo = make_topology(200, 4, 16);
  auto plain_cfg = fast_config();
  plain_cfg.workload.catalog_size = 200;  // popular content -> cacheable
  plain_cfg.workload.catalog_zipf_alpha = 1.2;
  auto cache_cfg = plain_cfg;
  cache_cfg.cache_capacity = 64;
  Simulation plain(topo, plain_cfg, Rng(16));
  Simulation cached(topo, cache_cfg, Rng(16));
  plain.run(60);
  cached.run(60);
  EXPECT_LT(cached.totals().total_transmissions,
            plain.totals().total_transmissions);
  // Cache serves happened.
  std::uint64_t cache_serves = 0;
  for (const auto& c : cached.counters()) cache_serves += c.cache_serves;
  EXPECT_GT(cache_serves, 0u);
}

TEST(Simulation, TitForTatRefusesSomeDeliveries) {
  const auto topo = make_topology();
  auto cfg = fast_config();
  cfg.policy = "tit-for-tat";
  Simulation sim(topo, cfg, Rng(17));
  sim.run(40);
  EXPECT_GT(sim.totals().refused, 0u);
  // No tokens move under tit-for-tat.
  for (const double v : sim.income_per_node()) EXPECT_EQ(v, 0.0);
}

TEST(Simulation, UnknownPolicyThrows) {
  const auto topo = make_topology();
  auto cfg = fast_config();
  cfg.policy = "nonsense";
  EXPECT_THROW(Simulation(topo, cfg, Rng(1)), std::invalid_argument);
}

TEST(Simulation, UnknownPricerThrows) {
  const auto topo = make_topology();
  auto cfg = fast_config();
  cfg.pricer = "nonsense";
  EXPECT_THROW(Simulation(topo, cfg, Rng(1)), std::invalid_argument);
}

TEST(Simulation, RoutingSuccessIsHighOnPaperLikeTopology) {
  const auto topo = make_topology(500, 4, 18);
  Simulation sim(topo, fast_config(), Rng(18));
  sim.run(50);
  const auto& t = sim.totals();
  EXPECT_LT(t.failed_routes, t.chunk_requests / 100);
}

}  // namespace
}  // namespace fairswap::core
