// The four benchmark workloads and their untraced pass.
//
// A pass repeats the library's real entry path — what core::run_experiment
// does, split at the set-up boundary so set-up and run are timed apart:
// core::build_topology -> core::Simulation -> drive -> finish_flows ->
// core::package_experiment. equilibrium goes through agents::EpochDriver
// instead. Every pass derives all of its inputs from the seed, so all
// passes of one run do identical work and produce identical outputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "agents/epoch.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "metrics.hpp"

namespace perfbench {

enum class Workload { kPaperGrid, kFlowFct, kHeavyTraffic, kEquilibrium };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(Workload w);

/// One simulation of a pass.
struct Cell {
  fairswap::core::ExperimentConfig config;
  /// The simulation's random stream: split 1 of the config seed, as
  /// run_experiment seeds it, or one heavy_traffic shard's stream.
  fairswap::Rng sim_rng;
  /// Chunk requests to drive to, reached at a file boundary as the
  /// heavy_traffic scenario's shards do; 0 runs config.files files.
  std::uint64_t quota{0};
};

/// Everything one pass of a workload runs, derived from the seed alone.
/// Consecutive cells with equal topology configs and seeds share one
/// built topology, as harness::run_grid does.
struct WorkloadSpec {
  Workload workload{Workload::kPaperGrid};
  std::vector<Cell> cells;
};

[[nodiscard]] WorkloadSpec make_spec(Workload w, std::uint64_t seed);

/// One untraced pass: its sample, and the first check it failed.
struct PassOutcome {
  PassSample sample;
  /// Empty when every output check and workload guard held.
  std::string failure;
  /// Digest of the accounting outputs alone (routes, counts, ledger) —
  /// what a flow-level run must share with its counter-based twin.
  std::uint64_t accounting_digest{0};
};

[[nodiscard]] PassOutcome run_pass(const WorkloadSpec& spec);

/// flow_fct's guard that the flow plane leaves accounting alone: the
/// accounting digest of the same cell run counter-based (untimed).
[[nodiscard]] std::uint64_t counter_reference_digest(const WorkloadSpec& spec);

/// The output checks every pass runs on a packaged cell — request and
/// transmission conservation, flow conservation on flow-level runs — plus
/// heavy_traffic's guards (the flash crowd fired, threshold settlements
/// happened). Returns the first violation, or an empty string.
[[nodiscard]] std::string check_cell(Workload w,
                                     const fairswap::core::ExperimentResult& r,
                                     const fairswap::core::Simulation& sim);

/// Fingerprint of a packaged cell (counters, totals, per-node series,
/// ledger and sketches; wall time excluded).
void add_result(Fingerprint& fp, const fairswap::core::ExperimentResult& r,
                const fairswap::core::Simulation& sim);

/// Fingerprint, size and checks of a finished epoch game.
struct EpochOutputs {
  std::uint64_t fingerprint{0};
  std::uint64_t chunk_requests{0};
  std::string failure;
};

/// Checks every epoch's request accounting, the last epoch's outputs in
/// full, and equilibrium's guards (agents revised, service was refused).
[[nodiscard]] EpochOutputs check_epoch_game(
    const fairswap::core::ExperimentConfig& cfg,
    const fairswap::agents::EpochDriver& game,
    const fairswap::agents::EpochSeries& series);

/// True when cell `i` (> 0) needs another topology than cell i - 1.
[[nodiscard]] bool new_topology_at(const WorkloadSpec& spec, std::size_t i);

/// Seconds between two telemetry::wall_now_ns() stamps.
[[nodiscard]] double seconds_between(std::uint64_t start_ns,
                                     std::uint64_t end_ns) noexcept;

}  // namespace perfbench
