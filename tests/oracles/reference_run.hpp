// ReferenceRun — a whole simulation without the compiled router, kept as a
// test oracle.
//
// core::Simulation routes through CompiledRouter, whose routes carry the
// arena edge id of every hop, and its Ledger resolves each balance slot
// from those ids. This is what the simulation did before either existed:
// the Address-keyed greedy walk per chunk (RoutingTable::next_hop, then
// the ForwardingRouter oracle's address hash, toward the storer its trie
// names), short-circuited by relay caches as it goes when enabled, and a
// replay of Simulation::account over the resulting edge-less routes. A
// fresh policy and a fresh Ledger account those routes, so the ledger
// finds every balance slot by scanning the consumer's slab rather than by
// edge id.
//
// The request stream and the free-rider sample are seeded exactly as
// Simulation seeds them, so for equal (topology, config, rng) a reference
// run and a Simulation must agree on every counter, total and ledger
// observable — compiled_equivalence_test and bench_scale check that they
// do. Strategic service refusal (Simulation::set_behavior) and the flow
// layer are not modelled. Nothing outside tests/ and bench_scale links it.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "accounting/ledger.hpp"
#include "accounting/pricing.hpp"
#include "common/rng.hpp"
#include "core/simulation.hpp"
#include "incentives/policy.hpp"
#include "oracles/forwarding_router.hpp"
#include "overlay/forwarding.hpp"
#include "overlay/topology.hpp"
#include "storage/store.hpp"
#include "workload/engine.hpp"

namespace fairswap::core {

class ReferenceRun {
 public:
  /// The topology must outlive the run.
  ReferenceRun(const overlay::Topology& topo, const SimulationConfig& config,
               Rng rng);

  ReferenceRun(const ReferenceRun&) = delete;
  ReferenceRun& operator=(const ReferenceRun&) = delete;

  /// Executes `files` file requests drawn from the demand stream.
  void run(std::size_t files);

  /// Applies one externally supplied request.
  void apply(const workload::DownloadRequest& request);

  [[nodiscard]] const std::vector<NodeCounters>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const SimulationTotals& totals() const noexcept {
    return totals_;
  }
  [[nodiscard]] const accounting::Ledger& swap() const noexcept {
    return ledger_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& free_riders() const noexcept {
    return free_riders_;
  }
  /// Per-node income in token base units as doubles, like
  /// Simulation::income_per_node.
  [[nodiscard]] std::vector<double> income_per_node() const;

 private:
  void request_chunk(NodeIndex originator, Address chunk, bool is_upload);
  void account(const overlay::Route& route, bool from_cache);

  const overlay::Topology* topo_;
  /// The oracle's own tables and address lookups; its walk is not used.
  overlay::ForwardingRouter greedy_;
  SimulationConfig config_;
  /// The router snapshot the ledger's arena indexes, pinned like
  /// Simulation pins it.
  std::shared_ptr<const overlay::CompiledRouter> router_;
  accounting::Ledger ledger_;
  std::unique_ptr<accounting::Pricer> pricer_;
  std::unique_ptr<incentives::PaymentPolicy> policy_;
  workload::DemandEngine engine_;
  std::vector<storage::ChunkStore> stores_;
  std::vector<NodeCounters> counters_;
  std::vector<std::uint8_t> free_riders_;
  SimulationTotals totals_;
  incentives::PolicyContext ctx_;
  overlay::Route route_;
};

}  // namespace fairswap::core
