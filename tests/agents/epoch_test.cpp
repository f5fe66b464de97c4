#include "agents/epoch.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "agents/strategy.hpp"
#include "core/scenarios.hpp"
#include "overlay/topology.hpp"

namespace fairswap::agents {
namespace {

/// A small but economically realistic arena: paper-sized 16-bit address
/// space (so xor-distance prices match the calibrated bandwidth_cost) at
/// a node count small enough to keep epochs cheap.
core::ExperimentConfig game_config() {
  core::ExperimentConfig cfg;
  cfg.topology.node_count = 250;
  cfg.topology.address_bits = 16;
  cfg.seed = 99;
  cfg.sim.workload.min_chunks_per_file = 5;
  cfg.sim.workload.max_chunks_per_file = 20;
  cfg.agents.epochs = 30;
  cfg.agents.files_per_epoch = 80;
  cfg.agents.dynamics = "best-response";
  cfg.agents.revision_rate = 0.5;
  cfg.agents.bandwidth_cost = 100.0;
  cfg.agents.initial_free_riders = 0.1;
  return cfg;
}

TEST(EpochDriver, ValidatesItsConfiguration) {
  const auto cfg = game_config();
  Rng topo_rng(cfg.seed);
  const auto topo = overlay::Topology::build(cfg.topology, topo_rng);

  auto no_epochs = cfg;
  no_epochs.agents.epochs = 0;
  EXPECT_THROW(EpochDriver(topo, no_epochs), std::invalid_argument);

  auto no_files = cfg;
  no_files.agents.files_per_epoch = 0;
  EXPECT_THROW(EpochDriver(topo, no_files), std::invalid_argument);

  auto bad_dynamics = cfg;
  bad_dynamics.agents.dynamics = "replicator";
  EXPECT_THROW(EpochDriver(topo, bad_dynamics), std::invalid_argument);

  auto bad_rate = cfg;
  bad_rate.agents.revision_rate = 1.5;
  EXPECT_THROW(EpochDriver(topo, bad_rate), std::invalid_argument);

  auto nan_riders = cfg;
  nan_riders.agents.initial_free_riders =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(EpochDriver(topo, nan_riders), std::invalid_argument);
}

TEST(EpochDriver, ReusesOneCompiledSnapshotAcrossAllEpochs) {
  auto cfg = game_config();
  cfg.agents.epochs = 4;
  cfg.agents.files_per_epoch = 20;
  const auto topo = core::build_topology(cfg);
  const auto* compiled = topo.compiled_shared().get();

  EpochDriver driver(topo, cfg);
  const auto series = driver.run();
  ASSERT_FALSE(series.points.empty());
  // The epoch loop ran entirely on the externally built topology and its
  // compiled arenas — nothing was rebuilt (the pointer-identity half of
  // the acceptance criteria; Simulation::reset's own stability is pinned
  // in tests/core/reset_test.cpp).
  EXPECT_EQ(&driver.simulation().topology(), &topo);
  EXPECT_EQ(driver.simulation().compiled_router(), compiled);
  EXPECT_EQ(topo.compiled_shared().get(), compiled);
}

TEST(EpochDriver, EqualConfigsGiveBitIdenticalSeries) {
  auto cfg = game_config();
  cfg.agents.epochs = 6;
  cfg.agents.files_per_epoch = 25;
  cfg.agents.noise = 0.05;  // exercise the noisy path too
  const auto a = run_epoch_game(cfg);
  const auto b = run_epoch_game(cfg);
  EXPECT_EQ(a, b);
}

TEST(EpochDriver, AllShareNoNoiseIsAbsorbingImmediately) {
  auto cfg = game_config();
  cfg.agents.initial_free_riders = 0.0;
  cfg.agents.dynamics = "imitate";
  const auto series = run_epoch_game(cfg);
  ASSERT_EQ(series.points.size(), 1u);
  EXPECT_TRUE(series.converged);
  EXPECT_EQ(series.converged_epoch, 0u);
  EXPECT_EQ(series.final_prevalence, 0.0);
  EXPECT_EQ(series.points[0].free_riders, 0u);
  EXPECT_EQ(series.points[0].switched, 0u);
}

TEST(EpochDriver, FrozenPopulationIsAbsorbingImmediately) {
  auto cfg = game_config();
  cfg.agents.revision_rate = 0.0;  // nobody will ever revise
  cfg.agents.initial_free_riders = 0.2;
  const auto series = run_epoch_game(cfg);
  EXPECT_TRUE(series.converged);
  EXPECT_EQ(series.points.size(), 1u);
  EXPECT_DOUBLE_EQ(series.final_prevalence, 0.2);
}

TEST(EpochDriver, QuietEpochsAtLowRevisionRatesAreNotAFixedPoint) {
  // With ~2 revision opportunities per epoch, three silent epochs are
  // nowhere near a population's worth of evidence: the driver must keep
  // playing instead of declaring convergence at an interior prevalence.
  auto cfg = game_config();
  cfg.agents.revision_rate = 0.01;
  cfg.agents.initial_free_riders = 0.4;
  cfg.agents.epochs = 8;
  cfg.agents.files_per_epoch = 20;
  const auto series = run_epoch_game(cfg);
  if (series.converged) {
    // Only the true absorbing states may stop such a run this early.
    EXPECT_TRUE(series.final_prevalence == 0.0 ||
                series.final_prevalence == 1.0);
  } else {
    EXPECT_EQ(series.points.size(), 8u);
  }
}

TEST(EpochDriver, InvasionIsRepelledWithPaymentsOn) {
  const auto cfg = game_config();
  const auto series = run_epoch_game(cfg);
  // Sharing out-earns free-riding when payments flow: the 10% invasion
  // collapses back to (essentially) zero prevalence.
  EXPECT_LE(series.final_prevalence, 0.02);
  ASSERT_FALSE(series.points.empty());
  // Sharers out-earned free riders in the opening epoch.
  EXPECT_GT(series.points[0].share_utility, series.points[0].free_ride_utility);
}

TEST(EpochDriver, FreeRidingFixatesWhenPaymentsAreAblated) {
  auto cfg = game_config();
  cfg.sim.policy = "none";
  const auto series = run_epoch_game(cfg);
  EXPECT_EQ(series.final_prevalence, 1.0);
  EXPECT_TRUE(series.converged);
  // With no income, sharing is pure cost from the first epoch.
  EXPECT_LT(series.points[0].share_utility, 0.0);
  EXPECT_EQ(series.points[0].free_ride_utility, 0.0);
  // At fixation the network has collapsed: welfare is gone too.
  EXPECT_LE(series.points.back().total_welfare, 0.0);
}

TEST(EpochDriver, ImitationIsBistableAroundTheSharingNorm) {
  // Inside the sharing basin, imitation restores (near-)full sharing...
  auto cfg = game_config();
  cfg.agents.dynamics = "imitate";
  cfg.agents.revision_rate = 0.25;
  cfg.agents.initial_free_riders = 0.2;
  const auto recovering = run_epoch_game(cfg);
  EXPECT_LT(recovering.final_prevalence, 0.1);

  // ...while a majority-free-riding start starves sharers of income
  // (most routes die at a refuser) and tips the population the other way
  // — incentives sustain the norm, they don't resurrect it.
  cfg.agents.initial_free_riders = 0.6;
  const auto collapsing = run_epoch_game(cfg);
  EXPECT_GT(collapsing.final_prevalence, 0.6);
}

TEST(EpochDriver, EpochPointsCarryConsistentAccounting) {
  auto cfg = game_config();
  cfg.agents.epochs = 5;
  cfg.agents.files_per_epoch = 30;
  const auto series = run_epoch_game(cfg);
  for (const auto& p : series.points) {
    EXPECT_GT(p.chunk_requests, 0u);
    EXPECT_GE(p.chunk_requests, p.delivered + p.refused);
    EXPECT_GE(p.prevalence, 0.0);
    EXPECT_LE(p.prevalence, 1.0);
    EXPECT_EQ(p.free_riders,
              static_cast<std::size_t>(
                  p.prevalence * static_cast<double>(cfg.topology.node_count) +
                  0.5));
  }
}

}  // namespace
}  // namespace fairswap::agents
