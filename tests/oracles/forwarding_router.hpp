// ForwardingRouter — the Address-keyed greedy walk, kept as a test oracle.
//
// overlay::CompiledRouter answers every hop from flat NodeIndex arrays.
// This is the walk it replaced: per hop, RoutingTable::next_hop over the
// Address-keyed buckets, then Topology::index_of to resolve the winner.
// Its routes carry no edge ids. compiled_router_test pins CompiledRouter
// to it route for route, and bench_scale times one against the other.
// Nothing outside tests/ and bench_scale links it.
#pragma once

#include <cstddef>

#include "common/address.hpp"
#include "overlay/forwarding.hpp"
#include "overlay/topology.hpp"

namespace fairswap::overlay {

/// Stateless greedy router over a Topology.
class ForwardingRouter {
 public:
  /// `max_hops` bounds route length; 4x the address bits is far beyond any
  /// reachable route (each hop increases the shared prefix), so hitting it
  /// indicates a broken table and is flagged via Route::truncated.
  explicit ForwardingRouter(const Topology& topo,
                            std::size_t max_hops = 0) noexcept;

  /// Routes from `origin` toward `target`, stopping at the storer (global
  /// closest node) or at a local minimum of the greedy walk.
  [[nodiscard]] Route route(NodeIndex origin, Address target) const;

  /// Allocation-free variant: writes into `out` (resetting it first), so a
  /// caller looping over many chunks can reuse one path buffer.
  void route_into(NodeIndex origin, Address target, Route& out) const;

  [[nodiscard]] const Topology& topology() const noexcept { return *topo_; }

 private:
  const Topology* topo_;
  std::size_t max_hops_;
};

}  // namespace fairswap::overlay
