// The epoch loop: play -> measure -> revise, over one reused simulation.
//
// Each epoch runs `files_per_epoch` file transfers with the current
// strategy assignment injected into the simulation (FREE_RIDE nodes
// refuse to serve and withhold originator payments), computes per-node
// utilities (agents/utility.hpp), records one EpochPoint of the time
// series (free-rider prevalence, Gini F1/F2, total welfare, route
// accounting), and lets the revision dynamics (agents/dynamics.hpp)
// produce the next assignment.
//
// The loop never rebuilds anything: one built Topology and its compiled
// router/edge-ledger arenas serve every epoch through
// core::Simulation::reset, which zeroes counters and balances in place —
// tests/agents/epoch_test.cpp pins the router's pointer identity across
// epochs. That is what keeps a 50-epoch x 1000-file run at 10k nodes at
// roughly the cost of one 50k-file run.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "agents/dynamics.hpp"
#include "agents/strategy.hpp"
#include "core/experiment.hpp"
#include "core/simulation.hpp"

namespace fairswap::agents {

/// One epoch of the time series. Prevalence and utilities describe the
/// population that *played* this epoch; `switched` counts the revisions
/// applied at its end.
struct EpochPoint {
  std::size_t epoch{0};
  /// FREE_RIDE share of the population during this epoch.
  double prevalence{0.0};
  std::size_t free_riders{0};
  /// Strategy changes applied by the revision at the end of this epoch.
  std::size_t switched{0};
  /// Mean utility per strategy (0 when nobody played it).
  double share_utility{0.0};
  double free_ride_utility{0.0};
  /// Sum of all utilities.
  double total_welfare{0.0};
  double total_income{0.0};
  /// The paper's fairness metrics over this epoch's play.
  double gini_f2{0.0};
  double gini_f1_income{0.0};
  std::uint64_t delivered{0};
  std::uint64_t refused{0};
  std::uint64_t chunk_requests{0};

  friend bool operator==(const EpochPoint&, const EpochPoint&) = default;
};

/// A full epoch-game run: the time series plus the convergence verdict.
struct EpochSeries {
  std::string label;
  std::vector<EpochPoint> points;
  /// True when the run reached an absorbing state (prevalence 0 or 1
  /// with no noise, or revision_rate 0 — nobody can ever move) or a
  /// sustained fixed point (kFixedPointPatience epochs in a row without
  /// a single switch, covering at least one full population's worth of
  /// revision opportunities, no noise) and stopped early.
  bool converged{false};
  /// The epoch at which convergence was detected (last played epoch).
  std::size_t converged_epoch{0};
  /// FREE_RIDE share after the final revision.
  double final_prevalence{0.0};

  friend bool operator==(const EpochSeries&, const EpochSeries&) = default;
};

/// Consecutive zero-switch epochs (noise == 0) accepted as a fixed
/// point — provided those epochs also drew at least node_count revision
/// opportunities in total, so "nobody wanted to move" is never confused
/// with "(almost) nobody was asked" at low revision rates.
inline constexpr std::size_t kFixedPointPatience = 3;

/// Drives the epoch game over an already-built topology (which must
/// outlive the driver). config.agents holds the game parameters
/// (config.agents.epochs >= 1); config.sim.free_rider_share is ignored —
/// the initial FREE_RIDE set is sampled from config.agents
/// .initial_free_riders instead and evolves from there.
class EpochDriver {
 public:
  EpochDriver(const overlay::Topology& topo, core::ExperimentConfig config);

  /// Runs every epoch (stopping early on convergence) and returns the
  /// series. Call once per driver.
  [[nodiscard]] EpochSeries run();

  /// The reused simulation — inspectable after run() (pointer-identity
  /// tests assert its compiled router never changed).
  [[nodiscard]] const core::Simulation& simulation() const noexcept {
    return sim_;
  }

  /// The strategy assignment after the last revision.
  [[nodiscard]] std::span<const Strategy> behavior() const noexcept {
    return behavior_;
  }

  /// Sim-plane counters accumulated over every epoch (the per-epoch
  /// reset zeroes the simulation's own block, so the driver folds each
  /// epoch's snapshot here). Includes agent_revisions. Valid after run().
  [[nodiscard]] const telemetry::CounterBlock& telem() const noexcept {
    return telem_;
  }

 private:
  core::ExperimentConfig config_;
  core::Simulation sim_;
  std::unique_ptr<RevisionDynamics> dynamics_;
  NeighborLists neighbors_;
  Rng dynamics_rng_;
  std::vector<Strategy> behavior_;
  std::vector<Strategy> next_behavior_;
  std::vector<std::uint8_t> flags_;
  /// Cross-epoch sim-plane counter accumulator (see telem()).
  telemetry::CounterBlock telem_;
};

/// Convenience wrapper: builds the topology the config describes (seed
/// split 0, like core::run_experiment) and runs the epoch game.
[[nodiscard]] EpochSeries run_epoch_game(const core::ExperimentConfig& config);

}  // namespace fairswap::agents
