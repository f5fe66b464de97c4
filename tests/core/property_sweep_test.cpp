// Property sweeps: simulator invariants that must hold for every
// combination of seed, bucket size, and policy — parameterized so each
// combination is its own ctest entry.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <tuple>

#include "core/fairness.hpp"
#include "core/simulation.hpp"

namespace fairswap::core {
namespace {

// The policy is a std::string, not a const char*: GoogleTest prints a
// pointer parameter as its address, which would put a per-build value into
// every test name.
using Param = std::tuple<std::uint64_t /*seed*/, std::size_t /*k*/,
                         std::string /*policy*/>;

class SimulationInvariants : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const auto [seed, k, policy] = GetParam();
    overlay::TopologyConfig tcfg;
    tcfg.node_count = 250;
    tcfg.address_bits = 13;
    tcfg.buckets.k = k;
    Rng trng(seed);
    topo_ = std::make_unique<overlay::Topology>(
        overlay::Topology::build(tcfg, trng));

    SimulationConfig cfg;
    cfg.workload.min_chunks_per_file = 20;
    cfg.workload.max_chunks_per_file = 80;
    cfg.policy = policy;
    sim_ = std::make_unique<Simulation>(*topo_, cfg, Rng(seed + 1));
    sim_->run(60);
  }

  std::unique_ptr<overlay::Topology> topo_;
  std::unique_ptr<Simulation> sim_;
};

TEST_P(SimulationInvariants, RequestConservation) {
  const auto& t = sim_->totals();
  EXPECT_EQ(t.delivered + t.refused + t.failed_routes + t.truncated_routes,
            t.chunk_requests);
}

TEST_P(SimulationInvariants, TransmissionAccounting) {
  const auto served = sim_->served_per_node();
  EXPECT_EQ(std::accumulate(served.begin(), served.end(), std::uint64_t{0}),
            sim_->totals().total_transmissions);
}

TEST_P(SimulationInvariants, FirstHopNeverExceedsServed) {
  const auto served = sim_->served_per_node();
  const auto first = sim_->first_hop_per_node();
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_LE(first[i], served[i]) << "node " << i;
  }
}

TEST_P(SimulationInvariants, GiniWithinUnitInterval) {
  const auto report = compute_fairness({sim_->served_per_node(),
                                        sim_->first_hop_per_node(),
                                        sim_->income_per_node()});
  EXPECT_GE(report.gini_f1, 0.0);
  EXPECT_LE(report.gini_f1, 1.0);
  EXPECT_GE(report.gini_f2, 0.0);
  EXPECT_LE(report.gini_f2, 1.0);
}

TEST_P(SimulationInvariants, IncomeNonNegativeEverywhere) {
  for (const double v : sim_->income_per_node()) {
    EXPECT_GE(v, 0.0);
  }
}

TEST_P(SimulationInvariants, MoneyConservation) {
  // Every token of income was spent by someone (no policy here mints).
  const auto& swap = sim_->swap();
  Token income_total;
  Token spent_total;
  for (std::size_t n = 0; n < topo_->node_count(); ++n) {
    income_total += swap.income()[n];
    spent_total += swap.spent()[n];
  }
  const auto [seed, k, policy] = GetParam();
  if (policy != "effort-based") {
    EXPECT_EQ(income_total, spent_total);
  } else {
    EXPECT_GE(income_total, spent_total);  // the pool is minted
  }
}

TEST_P(SimulationInvariants, RoutingMostlySucceeds) {
  const auto& t = sim_->totals();
  EXPECT_LT(t.failed_routes + t.truncated_routes, t.chunk_requests / 50);
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  std::string name = "seed" + std::to_string(std::get<0>(info.param)) + "_k" +
                     std::to_string(std::get<1>(info.param)) + "_" +
                     std::get<2>(info.param);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    SeedKPolicy, SimulationInvariants,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(std::size_t{4}, std::size_t{20}),
                       ::testing::Values(std::string("zero-proximity"),
                                         std::string("per-hop-swap"),
                                         std::string("effort-based"))),
    param_name);

}  // namespace
}  // namespace fairswap::core
