#include "agents/epoch.hpp"

#include <cmath>
#include <stdexcept>

#include "agents/utility.hpp"
#include "common/telemetry/span.hpp"
#include "core/fairness.hpp"

namespace fairswap::agents {

namespace {

/// Epoch e's simulation seed stream. Stream 1 matches run_experiment's
/// sim split so the machinery is familiar; the per-epoch sub-split gives
/// every epoch an independent workload (same originator pool, fresh
/// request draws) — revision pressure reflects the game, not one frozen
/// request sequence.
Rng epoch_rng(std::uint64_t seed, std::size_t epoch) {
  return Rng(seed).split(1).split(epoch);
}

core::SimulationConfig sim_config(const core::ExperimentConfig& config) {
  core::SimulationConfig sim = config.sim;
  // The epoch game owns the free-rider assignment: the initial set comes
  // from agents.initial_free_riders and evolves via set_behavior.
  sim.free_rider_share = 0.0;
  return sim;
}

}  // namespace

EpochDriver::EpochDriver(const overlay::Topology& topo,
                         core::ExperimentConfig config)
    : config_(std::move(config)),
      sim_(topo, sim_config(config_), epoch_rng(config_.seed, 0)),
      dynamics_(make_dynamics(config_.agents.dynamics)),
      neighbors_(neighbor_lists(topo)),
      dynamics_rng_(Rng(config_.seed).split(3)),
      behavior_(topo.node_count(), Strategy::kShare) {
  const auto& agents = config_.agents;
  if (agents.epochs == 0) {
    throw std::invalid_argument("agents: epochs must be at least 1");
  }
  if (agents.files_per_epoch == 0) {
    throw std::invalid_argument("agents: files_per_epoch must be at least 1");
  }
  if (!dynamics_) {
    throw std::invalid_argument("unknown dynamics: " + agents.dynamics);
  }
  if (agents.revision_rate < 0.0 || agents.revision_rate > 1.0 ||
      agents.noise < 0.0 || agents.noise > 1.0 ||
      agents.initial_free_riders < 0.0 || agents.initial_free_riders > 1.0) {
    throw std::invalid_argument(
        "agents: revision_rate, noise and initial_free_riders must be in "
        "[0, 1]");
  }

  // Initial FREE_RIDE set: literally the free_rider_share sampling
  // (same rounding, same stream id), just fed from the driver's seed.
  const auto flags = core::Simulation::sample_free_riders(
      topo.node_count(), agents.initial_free_riders,
      Rng(config_.seed).split(2));
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (flags[i] != 0) behavior_[i] = Strategy::kFreeRide;
  }
}

EpochSeries EpochDriver::run() {
  EpochSeries series;
  series.label = config_.label;
  const auto& agents = config_.agents;
  const RevisionParams params{agents.revision_rate, agents.noise,
                              /*sample_size=*/10};
  std::size_t quiet_epochs = 0;
  std::size_t quiet_attempts = 0;

  for (std::size_t epoch = 0; epoch < agents.epochs; ++epoch) {
    TELEM_SPAN("epoch");
    if (epoch > 0) sim_.reset(epoch_rng(config_.seed, epoch));

    flags_.resize(behavior_.size());
    for (std::size_t i = 0; i < behavior_.size(); ++i) {
      flags_[i] = behavior_[i] == Strategy::kFreeRide ? 1 : 0;
    }
    sim_.set_behavior(flags_, /*refuse_service=*/true);
    {
      TELEM_SPAN("play");
      sim_.run(agents.files_per_epoch);
    }
    // The per-epoch reset wipes the sim's counter block; fold this
    // epoch's snapshot into the cross-epoch accumulator now.
    telem_.merge(sim_.telem());

    const auto utilities = epoch_utilities(sim_, agents.bandwidth_cost);

    EpochPoint point;
    point.epoch = epoch;
    point.prevalence = prevalence(behavior_);
    double sum[2] = {0.0, 0.0};
    std::size_t count[2] = {0, 0};
    for (std::size_t i = 0; i < behavior_.size(); ++i) {
      const auto s = static_cast<std::size_t>(behavior_[i]);
      sum[s] += utilities[i];
      ++count[s];
    }
    point.free_riders = count[1];
    point.share_utility =
        count[0] ? sum[0] / static_cast<double>(count[0]) : 0.0;
    point.free_ride_utility =
        count[1] ? sum[1] / static_cast<double>(count[1]) : 0.0;
    point.total_welfare = total_welfare(utilities);

    const auto served = sim_.served_per_node();
    const auto first_hop = sim_.first_hop_per_node();
    const auto income = sim_.income_per_node();
    for (const double v : income) point.total_income += v;
    const auto fairness = core::compute_fairness(
        core::FairnessInputs{served, first_hop, income}, /*lorenz_points=*/2);
    point.gini_f2 = fairness.gini_f2;
    point.gini_f1_income = fairness.gini_f1_income;
    point.delivered = sim_.totals().delivered;
    point.refused = sim_.totals().refused;
    point.chunk_requests = sim_.totals().chunk_requests;

    TELEM_SPAN("revise");
    const std::size_t attempts = dynamics_->revise(
        behavior_, utilities, neighbors_, params, dynamics_rng_,
        next_behavior_);
    telem_.bump(telemetry::Counter::kAgentRevisions, attempts);
    for (std::size_t i = 0; i < behavior_.size(); ++i) {
      if (next_behavior_[i] != behavior_[i]) ++point.switched;
    }
    series.points.push_back(point);
    behavior_.swap(next_behavior_);

    // Convergence: absorbing states and sustained fixed points only exist
    // without exploration noise.
    if (agents.noise == 0.0) {
      const double now = prevalence(behavior_);
      if (point.switched == 0) {
        ++quiet_epochs;
        quiet_attempts += attempts;
      } else {
        quiet_epochs = 0;
        quiet_attempts = 0;
      }
      // A fixed point needs evidence, not just silence: enough quiet
      // epochs AND a full population's worth of revision opportunities
      // that all declined to move. revision_rate 0 can never produce
      // either, but is trivially absorbing (nobody will ever revise).
      const bool frozen = agents.revision_rate == 0.0;
      const bool fixed_point = quiet_epochs >= kFixedPointPatience &&
                               quiet_attempts >= behavior_.size();
      if (now == 0.0 || now == 1.0 || frozen || fixed_point) {
        series.converged = true;
        series.converged_epoch = epoch;
        break;
      }
    }
  }

  series.final_prevalence = prevalence(behavior_);
  return series;
}

EpochSeries run_epoch_game(const core::ExperimentConfig& config) {
  const overlay::Topology topo = core::build_topology(config);
  EpochDriver driver(topo, config);
  return driver.run();
}

}  // namespace fairswap::agents
