// The bandwidth-incentive simulator — the paper's primary contribution.
//
// One Simulation wires a static Topology to the SWAP ledger, a pricing
// scheme, a payment policy and per-node chunk stores, and executes file
// downloads: each step routes every chunk of one file via forwarding
// Kademlia, counts who transmitted what, and lets the policy move money.
// All per-node counters needed by the paper's Figs. 4-6 and Table I are
// maintained incrementally.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "accounting/ledger.hpp"
#include "accounting/pricing.hpp"
#include "common/rng.hpp"
#include "common/stream_stats.hpp"
#include "common/telemetry/counters.hpp"
#include "incentives/policy.hpp"
#include "net/flow.hpp"
#include "overlay/forwarding.hpp"
#include "overlay/topology.hpp"
#include "storage/store.hpp"
#include "workload/engine.hpp"

namespace fairswap::net {
class FlowSimulator;
}

namespace fairswap::core {

using overlay::NodeIndex;

/// Simulation parameters beyond the topology.
struct SimulationConfig {
  workload::WorkloadConfig workload{};
  /// Demand-process composition over the base workload (Zipf popularity,
  /// flash crowd, diurnal modulation — workload/engine). Defaults leave
  /// every process off, which reproduces the plain DownloadGenerator
  /// stream bit-for-bit.
  workload::DemandConfig demand{};
  /// Maintain the bounded-memory streaming aggregates (StreamAggregates:
  /// hop-count and chunks-per-file percentile sketches) during the run.
  /// Off by default — the hot path is untouched unless asked.
  bool stream_metrics{false};
  /// With stream_metrics: how many leading hop values to additionally
  /// keep exactly, as the oracle subsample the heavy_traffic scenario
  /// checks the sketch against. 0 keeps none.
  std::size_t stream_sample_cap{0};
  accounting::SwapConfig swap{};
  /// Pricer name: "xor-distance" (default, paper), "proximity", "flat".
  std::string pricer{"xor-distance"};
  /// Policy name: "zero-proximity" (default, paper), "per-hop-swap",
  /// "tit-for-tat", "effort-based", "none" (incentive ablation).
  std::string policy{"zero-proximity"};
  /// Per-node LRU cache capacity in chunks; 0 = no caching (paper).
  std::size_t cache_capacity{0};
  /// Fraction of nodes that free-ride (never pay); 0 = everyone honest
  /// (paper: "we assume that nodes are not free-riders").
  double free_rider_share{0.0};
  /// Apply one tick of time-based amortization after every file download.
  bool amortize_each_step{false};
  /// Routing always runs on the compiled NodeIndex path
  /// (overlay/compiled_router) and SWAP balances always live in the
  /// edge-arena accounting::Ledger. These are constants, not knobs: the
  /// greedy walk and the hash-map ledger they replaced are test oracles
  /// (tests/oracles). They remain only because perfbench's replay
  /// (perfbench/src/traced.cpp) still reads them.
  static constexpr bool compiled_routing = true;
  static constexpr bool compiled_ledger = true;
  /// Hop cap per route; 0 = the default 4x address bits. Routes cut by the
  /// cap count as truncated_routes, not failed_routes.
  std::size_t max_route_hops{0};
  /// Simulate every delivered chunk as a finite-rate flow over link
  /// capacities (net/flow_sim) instead of an instantaneous transfer.
  /// Accounting is unaffected — routes, counters, SWAP debits and
  /// settlements stay bit-identical to the counter-based default
  /// (tests/net/flow_equivalence_test.cpp); the flow layer adds the
  /// temporal outputs in SimulationTotals (FCT percentiles, link
  /// utilization, timeouts) that are otherwise zero.
  bool flow_level{false};
  /// Link capacities and timing of the flow layer (used when flow_level).
  net::FlowConfig flow{};
};

/// Per-node activity counters.
struct NodeCounters {
  /// Chunk transmissions: every time this node sent a chunk downstream,
  /// whether as storer, cache hit, or relay — the "forwarded chunks" of
  /// the paper's Fig. 4 / Table I.
  std::uint64_t chunks_served{0};
  /// Transmissions in the zero-proximity (first hop) role — the serves
  /// the node is actually paid for (Fig. 6's denominator).
  std::uint64_t chunks_served_first_hop{0};
  /// Chunks this node requested as download originator.
  std::uint64_t chunks_requested{0};
  /// Requested chunks the node already held locally (it is the storer or
  /// had it cached).
  std::uint64_t local_hits{0};
  /// Chunks this node served out of its LRU cache (subset of
  /// chunks_served; 0 when caching is disabled).
  std::uint64_t cache_serves{0};

  friend bool operator==(const NodeCounters&, const NodeCounters&) = default;
};

/// Network-wide totals.
struct SimulationTotals {
  std::uint64_t files{0};
  /// Files that were uploads (push-sync) rather than downloads.
  std::uint64_t upload_files{0};
  std::uint64_t chunk_requests{0};
  /// Chunk requests belonging to uploads (subset of chunk_requests).
  std::uint64_t upload_requests{0};
  std::uint64_t delivered{0};
  std::uint64_t refused{0};        ///< vetoed by the policy (choking/blocklist)
  std::uint64_t failed_routes{0};  ///< walk dead-ended off the storer
  /// Walks cut by the hop cap before reaching the storer — distinct from
  /// failed_routes so dead ends and hop-cap cutoffs are distinguishable
  /// at scale. delivered + refused + failed_routes + truncated_routes ==
  /// chunk_requests.
  std::uint64_t truncated_routes{0};
  std::uint64_t local_hits{0};
  /// Total chunk transmissions == sum over nodes of chunks_served — the
  /// bandwidth overhead measure of the §V extension.
  std::uint64_t total_transmissions{0};

  // --- flow-level temporal outputs (all zero unless flow_level) ---------
  /// Flows started == delivered chunks that crossed at least one hop.
  std::uint64_t flows_started{0};
  std::uint64_t flows_completed{0};
  std::uint64_t flows_timed_out{0};
  /// Links that were a binding max-min bottleneck at any point.
  std::uint64_t saturated_links{0};
  /// Tick of the last flow completion or timeout.
  std::uint64_t flow_makespan{0};
  /// Flow-completion-time percentiles and mean, in ticks.
  double fct_p50{0.0};
  double fct_p90{0.0};
  double fct_p99{0.0};
  double fct_mean{0.0};
  /// max over links of delivered volume / (capacity * makespan).
  double max_link_utilization{0.0};

  friend bool operator==(const SimulationTotals&,
                         const SimulationTotals&) = default;
};

/// Bounded-memory streaming aggregates maintained when
/// SimulationConfig::stream_metrics is set: per-request distributions as
/// log-binned percentile sketches (common/stream_stats) instead of
/// per-request scalars, so 10M+ request runs hold O(bins), not
/// O(requests). Merge shards in canonical order for bit-identical
/// multi-shard folds.
struct StreamAggregates {
  /// Route length per delivered chunk (0 for local hits).
  PercentileSketch hops;
  /// Requested chunks per applied file.
  PercentileSketch chunks_per_file;
  /// The first SimulationConfig::stream_sample_cap hop values, exact —
  /// the oracle subsample for the sketch's error-bound check.
  std::vector<double> hops_sample;

  void merge(const StreamAggregates& other) {
    hops.merge(other.hops);
    chunks_per_file.merge(other.chunks_per_file);
  }
};

/// A running simulation over a shared topology. The topology must outlive
/// the simulation.
class Simulation {
 public:
  /// Builds with the policy named in `config`.
  Simulation(const overlay::Topology& topo, SimulationConfig config, Rng rng);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();  // out-of-line: FlowSimulator is incomplete here

  /// Executes one step == one file download (paper §IV-A).
  void step();

  /// Executes `files` steps.
  void run(std::size_t files);

  /// Applies an externally supplied request (trace replay).
  void apply(const workload::DownloadRequest& request);

  /// Rewinds to the freshly-constructed state while reusing everything
  /// expensive: counters, totals, ledger balances, caches and policy state
  /// are zeroed in place, and the workload stream plus free-rider
  /// selection are re-seeded from `rng` exactly as the constructor would.
  /// The topology, its compiled router and the edge-ledger arena are
  /// reused untouched (pointer-identical across resets), which is what
  /// keeps per-epoch resets cheap at 10k nodes — no rebuild, no
  /// reallocation. A post-reset run is bit-identical to a
  /// Simulation freshly constructed with the same rng
  /// (tests/core/reset_test.cpp).
  void reset(Rng rng);

  /// The free-rider sampling used at construction and reset (seed split
  /// 2 of the simulation rng): round-to-nearest count, distinct indices.
  /// Exposed so other samplers of "a `share` of the population" — the
  /// agents epoch game's initial FREE_RIDE set — are this sampling by
  /// construction, not by imitation. Throws std::invalid_argument when
  /// `share` is NaN or outside [0, 1].
  [[nodiscard]] static std::vector<std::uint8_t> sample_free_riders(
      std::size_t node_count, double share, Rng rng);

  /// Injects a per-node behavior vector (one flag per node, 1 =
  /// free-ride), replacing the free_rider_share random sample. With
  /// `refuse_service` the flagged nodes additionally refuse to serve or
  /// relay chunks (the strategic-agents model of src/agents — such
  /// deliveries count as `refused`); without it they only withhold
  /// originator payments, the paper's §V free-rider model. `free_ride`
  /// must have exactly node_count entries.
  void set_behavior(std::span<const std::uint8_t> free_ride,
                    bool refuse_service = false);

  [[nodiscard]] const overlay::Topology& topology() const noexcept {
    return *topo_;
  }
  [[nodiscard]] const SimulationConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const std::vector<NodeCounters>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const SimulationTotals& totals() const noexcept {
    return totals_;
  }
  [[nodiscard]] const accounting::Ledger& swap() const noexcept {
    return swap_;
  }
  [[nodiscard]] accounting::Ledger& swap() noexcept { return swap_; }
  [[nodiscard]] const incentives::PaymentPolicy& policy() const noexcept {
    return *policy_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& free_riders() const noexcept {
    return free_riders_;
  }
  /// The topology's compiled router, which this simulation routes and
  /// accounts over. Stable across reset() — the pointer-identity the
  /// epoch-loop tests assert to prove no per-epoch rebuild happens.
  [[nodiscard]] const overlay::CompiledRouter* compiled_router()
      const noexcept {
    return &topo_->compiled();
  }
  /// The base request generator (originator subset, catalog).
  [[nodiscard]] const workload::DownloadGenerator& generator() const noexcept {
    return engine_->base();
  }
  /// The demand engine the simulation pulls requests from.
  [[nodiscard]] const workload::DemandEngine& demand() const noexcept {
    return *engine_;
  }
  /// Mutable demand-engine access for external drivers (trace recording
  /// draws requests itself — through the engine, so demand processes are
  /// in what it records).
  [[nodiscard]] workload::DemandEngine& demand_mut() noexcept {
    return *engine_;
  }
  /// The streaming aggregates (empty unless config().stream_metrics).
  [[nodiscard]] const StreamAggregates& stream() const noexcept {
    return stream_;
  }
  /// Sim-plane telemetry counters for this simulation. Bumped by this
  /// simulation and by the ledger / flow / demand subsystems it owns;
  /// cleared by reset().
  [[nodiscard]] const telemetry::CounterBlock& telem() const noexcept {
    return telem_;
  }
  /// Drains the flow layer (every in-flight transfer completes or times
  /// out) and folds its report into totals(). Call once after the last
  /// step/apply of a flow-level run — run_experiment does. Idempotent; a
  /// no-op on counter-based runs.
  void finish_flows();

  /// The flow layer, or nullptr on counter-based runs.
  [[nodiscard]] const net::FlowSimulator* flow_simulator() const noexcept {
    return flow_sim_.get();
  }

  /// Per-node chunks served, as a dense vector (Fig. 4 series).
  [[nodiscard]] std::vector<std::uint64_t> served_per_node() const;
  /// Per-node first-hop serves (Fig. 6 denominator).
  [[nodiscard]] std::vector<std::uint64_t> first_hop_per_node() const;
  /// Per-node income in token base units as doubles (Fig. 5 series).
  [[nodiscard]] std::vector<double> income_per_node() const;

 private:
  /// Streaming-metrics bookkeeping for one delivered chunk (call only
  /// when config_.stream_metrics).
  void record_hops(double hops);

  /// Applies all post-routing accounting (failure counters, policy admit,
  /// transmission counters, relay caching, payment) for one routed chunk.
  /// `is_upload` orients the strategic-refusal walk (the data direction).
  /// Returns true if the chunk was delivered.
  bool account(const overlay::Route& route, bool from_cache, bool is_upload);

  /// The construction-time seeding shared with reset(): re-creates the
  /// workload stream (seed split 1) and re-samples the free-rider set
  /// (seed split 2), so reset(rng) reproduces construction bit-for-bit.
  void seed_state(Rng rng);

  const overlay::Topology* topo_;
  SimulationConfig config_;
  accounting::Ledger swap_;
  std::unique_ptr<accounting::Pricer> pricer_;
  std::unique_ptr<incentives::PaymentPolicy> policy_;
  std::unique_ptr<workload::DemandEngine> engine_;
  /// One chunk cache per node when cache_capacity > 0; empty otherwise,
  /// since nothing else reads them.
  std::vector<storage::ChunkStore> stores_;
  std::vector<NodeCounters> counters_;
  std::vector<std::uint8_t> free_riders_;
  /// Per-node service refusal (set_behavior's strategic free riders).
  /// Empty unless injected — the zero-cost default for classic runs.
  std::vector<std::uint8_t> refuse_service_;
  SimulationTotals totals_;
  /// Streaming aggregates (maintained only when config_.stream_metrics).
  StreamAggregates stream_;
  /// Sim-plane counter block. Owned here (one per simulation, no
  /// sharing) so shard-parallel runs bump without synchronization and
  /// fold like PercentileSketch.
  telemetry::CounterBlock telem_;
  /// Cumulative flow arrival time under diurnal modulation: file i
  /// arrives at sum of the first i modulated interarrivals. Without
  /// modulation the classic `interarrival * files` product is used, so
  /// default flow runs stay bit-identical to the pre-engine path.
  double arrival_tick_{0.0};
  /// The flow-level temporal layer; null unless config_.flow_level.
  std::unique_ptr<net::FlowSimulator> flow_sim_;
  incentives::PolicyContext ctx_;
  /// Reused buffers for the per-file routing batch; the hot path must not
  /// allocate. routes_buf_ only grows: a file routes into its first n
  /// slots, so a smaller file after a larger one keeps every route's path
  /// and edge buffers.
  std::vector<overlay::Route> routes_buf_;
  std::vector<NodeIndex> origins_buf_;
};

}  // namespace fairswap::core
