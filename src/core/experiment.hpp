// Experiment orchestration: build (or reuse) a topology, run a simulation,
// collect every series the paper's tables and figures need.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/telemetry/counters.hpp"
#include "core/fairness.hpp"
#include "core/simulation.hpp"
#include "overlay/topology.hpp"

namespace fairswap::core {

/// Parameters of the strategic-agents epoch game (consumed by
/// agents::EpochDriver; plain experiment runs ignore them). Epoch e runs
/// `files_per_epoch` file transfers, assigns every node the utility
/// `income - bandwidth_cost * chunks_served`, then lets a `revision_rate`
/// share of nodes revise their SHARE / FREE_RIDE strategy under the named
/// dynamics. Kept here (not in src/agents) so the harness binding table
/// can bind epoch keys onto one ExperimentConfig like every other knob.
struct AgentsConfig {
  /// Epoch count; 0 = no epoch game (plain single-run experiment).
  std::size_t epochs{0};
  /// File transfers simulated per epoch.
  std::size_t files_per_epoch{200};
  /// Revision dynamics: "imitate" (copy a better-earning routing-table
  /// neighbor) or "best-response" (adopt the strategy earning more on
  /// average in a random population sample).
  std::string dynamics{"imitate"};
  /// Share of nodes that revise per epoch — the inertia knob, in [0, 1].
  double revision_rate{0.25};
  /// Probability a revising node picks a uniformly random strategy
  /// instead (exploration noise, epsilon), in [0, 1].
  double noise{0.0};
  /// Cost of serving one chunk, in token base units — the per-epoch
  /// utility is income - bandwidth_cost * chunks_served.
  double bandwidth_cost{0.0};
  /// Share of nodes starting as FREE_RIDE, in [0, 1].
  double initial_free_riders{0.0};

  friend bool operator==(const AgentsConfig&, const AgentsConfig&) = default;
};

/// A complete experiment description: one topology, one simulation
/// configuration, a file count and a seed. Equal configs reproduce equal
/// results bit-for-bit.
struct ExperimentConfig {
  std::string label;
  overlay::TopologyConfig topology{};
  SimulationConfig sim{};
  std::size_t files{10'000};
  std::uint64_t seed{kDefaultSeed};
  /// Lorenz curve resolution in the report (0 = per-node points).
  std::size_t lorenz_points{0};
  /// Strategic-agents epoch game (src/agents); inert when epochs == 0.
  AgentsConfig agents{};
  /// When set, run_experiment records the generated workload to this CSV
  /// path (TraceRecorder format) while running.
  std::string trace_out;
  /// When set, run_experiment replays the trace at this path instead of
  /// generating a workload; `files` is ignored (the trace's request count
  /// runs). Mutually exclusive with trace_out (harness::validate).
  std::string trace_in;
};

/// Everything a bench needs to print a paper table/figure row.
struct ExperimentResult {
  ExperimentConfig config;
  FairnessReport fairness;
  SimulationTotals totals;
  /// Per-node chunks-served summary; .mean is Table I's "average forwarded
  /// chunks".
  Summary served_summary;
  double avg_forwarded_chunks{0.0};
  std::vector<std::uint64_t> served_per_node;
  std::vector<std::uint64_t> first_hop_per_node;
  std::vector<double> income_per_node;
  /// Fraction of chunk requests whose greedy route reached the storer.
  double routing_success{0.0};
  /// Number of settlement events (direct payments + threshold cheques).
  std::uint64_t settlement_count{0};
  /// Chunks served out of relay LRU caches (0 when caching is disabled).
  std::uint64_t cache_serves{0};
  /// Sum of all node incomes, in token base units.
  double total_income{0.0};
  /// Unsettled SWAP debt left at the end of the run (base units) — the
  /// bandwidth that was provided but never produced income.
  double outstanding_debt{0.0};
  /// Route-length percentiles from the streaming hop sketch (0 unless
  /// sim.stream_metrics; error bound common/stream_stats).
  double hops_p50{0.0};
  double hops_p99{0.0};
  /// Tail of the per-node chunks-served / income distributions, via the
  /// same bounded-memory sketch the heavy-traffic runs use.
  double served_p99{0.0};
  double income_p99{0.0};
  /// Sim-plane telemetry counter snapshot. Part of the bit-identical
  /// contract: folded across seeds/shards exactly like the sketches.
  telemetry::CounterBlock counters;
  /// Wall plane — excluded from every determinism check.
  double runtime_seconds{0.0};
};

/// Runs an experiment end to end (topology built from config.seed).
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// Packages a finished simulation's counters into an ExperimentResult —
/// the collection half of run_experiment, exposed so callers that drive a
/// Simulation themselves (e.g. bench_scale's ledger differential) reuse
/// one run for both purposes instead of re-simulating.
[[nodiscard]] ExperimentResult package_experiment(
    const ExperimentConfig& config, const Simulation& sim,
    double runtime_seconds);

/// Runs against an already-built topology (the paper reuses one overlay
/// for multiple simulations). The topology must match config.topology in
/// node count.
[[nodiscard]] ExperimentResult run_experiment(const overlay::Topology& topo,
                                              const ExperimentConfig& config);

/// Builds the topology an ExperimentConfig describes (seed-split stream 0).
[[nodiscard]] overlay::Topology build_topology(const ExperimentConfig& config);

/// Reads (and caches) the trace file `trace_in` replays. One read per
/// path per process: every sweep cell replays the same snapshot, and a
/// file swapped mid-sweep cannot hand cells different workloads. Throws
/// std::runtime_error when the file is missing, empty or unreadable —
/// drivers call this up front so a bad trace is reported before any
/// output artifact is truncated, and the validated snapshot is exactly
/// the text the runs replay.
const std::string& preload_trace_text(const std::string& path);

}  // namespace fairswap::core
