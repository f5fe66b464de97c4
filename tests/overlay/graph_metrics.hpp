// Structural metrics over a topology: bucket fill, hop-count distribution,
// routing success, reachability. The overlay test suites, their only
// callers, use them to check that a built topology routes and connects as
// Kademlia should.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "overlay/topology.hpp"

namespace fairswap::overlay {

/// Aggregate routing-quality measurements from sampled routes.
struct RoutingQuality {
  std::size_t samples{0};
  std::size_t reached{0};       ///< routes that ended at the true storer
  std::size_t truncated{0};     ///< routes cut by the hop limit
  RunningStats hop_stats;       ///< hops over all sampled routes
  std::vector<std::uint64_t> hop_histogram;  ///< index = hop count

  [[nodiscard]] double success_rate() const noexcept {
    return samples
               ? static_cast<double>(reached) / static_cast<double>(samples)
               : 0.0;
  }
};

/// Routes `samples` random (origin, target) pairs and aggregates hop
/// counts and success. Deterministic given `rng`.
[[nodiscard]] RoutingQuality measure_routing(const Topology& topo, Rng& rng,
                                             std::size_t samples);

/// Per-bucket occupancy across all nodes: entry b = average fill of bucket
/// b (0..1 relative to its capacity).
[[nodiscard]] std::vector<double> bucket_fill(const Topology& topo);

/// Fraction of ordered node pairs (a, b) where b is reachable from a by
/// following "knows" edges (BFS). 1.0 means the knows-graph is strongly
/// connected.
[[nodiscard]] double reachability(const Topology& topo);

}  // namespace fairswap::overlay
