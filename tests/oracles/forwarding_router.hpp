// ForwardingRouter — the Address-keyed greedy walk, kept as a test oracle.
//
// overlay::CompiledRouter answers every hop from flat NodeIndex arrays and
// every storer from its dense table. This is the walk it replaced: per
// hop, RoutingTable::next_hop over the Address-keyed buckets, then an
// address hash to resolve the winner; the storer comes from a descent of a
// closest-node trie. The oracle builds that hash and that trie itself, over
// Topology::addresses(), and every node's RoutingTable once, from
// Topology::table(), so no hop it takes passes through the router's scan.
// (The tables themselves are checked against the dense definition by
// reference_tables.hpp.) Its routes carry no edge ids. compiled_router_test
// pins CompiledRouter to it route for route, ReferenceRun walks through
// its tables and lookups, and bench_scale times one walk against the
// other. Nothing outside tests/ and bench_scale links it.
#pragma once

#include <cstddef>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/address.hpp"
#include "overlay/compiled_router.hpp"
#include "overlay/forwarding.hpp"
#include "overlay/routing_table.hpp"
#include "overlay/topology.hpp"

namespace fairswap::overlay {

/// Stateless greedy router over a Topology.
class ForwardingRouter {
 public:
  /// `max_hops` bounds route length; 4x the address bits is far beyond any
  /// reachable route (each hop increases the shared prefix), so hitting it
  /// indicates a broken table and is flagged via Route::truncated.
  explicit ForwardingRouter(const Topology& topo, std::size_t max_hops = 0);

  /// Routes from `origin` toward `target`, stopping at the storer (global
  /// closest node) or at a local minimum of the greedy walk.
  [[nodiscard]] Route route(NodeIndex origin, Address target) const;

  /// Allocation-free variant: writes into `out` (resetting it first), so a
  /// caller looping over many chunks can reuse one path buffer.
  void route_into(NodeIndex origin, Address target, Route& out) const;

  /// Node `n`'s routing table, as the topology held it at construction.
  [[nodiscard]] const RoutingTable& table(NodeIndex n) const noexcept {
    return tables_[n];
  }

  /// The node whose address is `a`, or nullopt when no node owns it.
  [[nodiscard]] std::optional<NodeIndex> index_of(Address a) const;

  /// The node storing content at `target` (globally XOR-closest node).
  [[nodiscard]] NodeIndex storer_of(Address target) const noexcept {
    return static_cast<NodeIndex>(closest_.closest_index(target));
  }

 private:
  std::size_t max_hops_;
  std::vector<RoutingTable> tables_;
  std::unordered_map<Address, NodeIndex> index_;
  ClosestNodeIndex closest_;
};

}  // namespace fairswap::overlay
