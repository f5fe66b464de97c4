// Forwarding Kademlia — Swarm's routing scheme (paper §III-A, Fig. 1).
//
// The originator forwards a request to the peer in its table closest to the
// chunk address; every relay repeats the step. The chunk then flows back
// along the same path. No relay learns who originated the request, which is
// the privacy property distinguishing forwarding Kademlia from the classic
// iterative lookup (see iterative.hpp for the contrast).
//
// This header holds the walk's result, Route. The walk itself is
// CompiledRouter (overlay/compiled_router.hpp); the Address-keyed greedy
// walk it replaced is the test oracle tests/oracles/forwarding_router.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "common/address.hpp"
#include "overlay/topology.hpp"

namespace fairswap::overlay {

/// Identifier of a directed peer edge in the compiled router's CSR arena
/// (an index into its peer slabs). kNoEdge marks "not resolved" — routes
/// built by hand or by the greedy test oracle carry no edge ids.
using EdgeId = std::uint32_t;
inline constexpr EdgeId kNoEdge = 0xFFFFFFFFu;

/// The trace of one routed chunk request.
struct Route {
  /// Nodes on the path, originator first. The last entry is the node where
  /// greedy forwarding terminated (no strictly-closer peer known).
  std::vector<NodeIndex> path;
  /// Compiled-router arena ids of the traversed edges: edges[i] is the
  /// directed table edge path[i] -> path[i+1]. Filled by the compiled
  /// walks (then edges.size() == hops()); empty on hand-built routes.
  /// The ledger resolves its balance slot from these ids instead of
  /// scanning for the node pair per hop, and the flow layer requires them.
  std::vector<EdgeId> edges;
  /// Address the route was aiming for.
  Address target{};
  /// True if the terminal node is the globally closest node to `target`,
  /// i.e. the node that stores the chunk under the paper's placement rule.
  bool reached_storer{false};
  /// True if the walk was cut off by the hop limit (pathological tables).
  bool truncated{false};

  /// Number of edges traversed (path.size() - 1; 0 when the originator
  /// already stores the chunk).
  [[nodiscard]] std::size_t hops() const noexcept {
    return path.empty() ? 0 : path.size() - 1;
  }

  /// Clears the route for reuse toward a new target, keeping the path
  /// buffer's capacity — the routing hot path routes millions of chunks
  /// and must not allocate per request.
  void reset(Address new_target) noexcept {
    path.clear();
    edges.clear();
    target = new_target;
    reached_storer = false;
    truncated = false;
  }

  /// Arena id of the edge path[i] -> path[i+1], or kNoEdge when this route
  /// carries no edge ids (hand-built routes, the greedy test oracle).
  [[nodiscard]] EdgeId edge(std::size_t i) const noexcept {
    return i < edges.size() ? edges[i] : kNoEdge;
  }

  [[nodiscard]] NodeIndex originator() const noexcept { return path.front(); }
  [[nodiscard]] NodeIndex terminal() const noexcept { return path.back(); }

  /// The zero-proximity node: the first hop, i.e. the peer in the
  /// originator's routing table closest to the target. This is the only
  /// node the originator pays under Swarm's default settlement behaviour
  /// (paper §III-B). Returns originator() when hops() == 0.
  [[nodiscard]] NodeIndex first_hop() const noexcept {
    return path.size() > 1 ? path[1] : path.front();
  }
};

}  // namespace fairswap::overlay
