// Network topology: node address assignment plus one static routing table
// per node, built deterministically from a seed.
//
// The paper builds a 1000-node network on a 16-bit address space, populates
// every bucket with up to k uniformly chosen candidates, and keeps the
// tables static for the entire experiment. The same topology object can be
// shared by many simulations ("Our tool allows to use the same overlay for
// multiple simulations"). build() samples every bucket straight into the
// compiled router's peer arena (overlay/compiled_router.hpp), the only copy
// of the tables; table(n) rebuilds one node's RoutingTable from it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/address.hpp"
#include "common/rng.hpp"
#include "overlay/routing_table.hpp"

namespace fairswap::overlay {

class CompiledRouter;

/// Dense node index in [0, node_count). All per-node experiment counters
/// are vectors indexed by NodeIndex.
using NodeIndex = std::uint32_t;

/// Topology construction parameters (paper defaults).
struct TopologyConfig {
  std::size_t node_count{1000};
  int address_bits{16};
  BucketPolicy buckets{};

  /// Equal configs build equal topologies from equal seeds — what lets the
  /// experiment harness share one built topology across a sweep group.
  friend bool operator==(const TopologyConfig&,
                         const TopologyConfig&) = default;
};

/// An immutable overlay: addresses and the compiled router, which holds
/// the routing tables and answers every address-to-node question. Value
/// type; cheap to share by const reference.
class Topology {
 public:
  /// Builds a topology. All randomness (addresses, bucket sampling) is
  /// drawn from `rng`, so equal seeds give identical networks. Throws
  /// std::invalid_argument for an address width outside [1, 32], fewer
  /// than 2 nodes, more nodes than addresses, or a zero bucket capacity.
  static Topology build(const TopologyConfig& config, Rng& rng);

  [[nodiscard]] const TopologyConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const AddressSpace& space() const noexcept { return space_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return addresses_.size();
  }

  [[nodiscard]] Address address_of(NodeIndex n) const noexcept {
    return addresses_[n];
  }
  /// Node `n`'s routing table, rebuilt from the router's arena: each
  /// bucket lists its peers in the order they joined it.
  [[nodiscard]] RoutingTable table(NodeIndex n) const;
  [[nodiscard]] std::span<const Address> addresses() const noexcept {
    return addresses_;
  }

  /// The compiled (precomputed) routing hot path and the tables it routes
  /// over. Built once at the end of build(); rebuilt by
  /// inject_table_entry. See overlay/compiled_router.hpp.
  [[nodiscard]] const CompiledRouter& compiled() const noexcept;

  /// Shared ownership of the current compiled router, for holders that
  /// must keep one arena snapshot alive and self-consistent (edge ids
  /// index into a specific arena) across a potential inject_table_entry
  /// recompile — core::Simulation pins its snapshot through this.
  [[nodiscard]] std::shared_ptr<const CompiledRouter> compiled_shared()
      const noexcept {
    return compiled_;
  }

  /// Fault-injection seam: admits `peer` into `node`'s routing table even
  /// when `peer` is not a member of this network — modelling a stale or
  /// poisoned table entry pointing at a departed node. Respects bucket
  /// capacity (returns false when the bucket is full or the entry is
  /// already present) and recompiles the routing hot path on success.
  /// Used by the route-accounting regression tests. Inject before
  /// constructing simulations: a Simulation pins the compiled router it
  /// was built with (routing and edge-ledger slots must index one arena),
  /// so later injections are invisible to it.
  bool inject_table_entry(NodeIndex node, Address peer);

  /// Total directed "knows" edges (sum of routing-table sizes).
  [[nodiscard]] std::size_t edge_count() const noexcept;

 private:
  Topology(TopologyConfig config, AddressSpace space);

  TopologyConfig config_;
  AddressSpace space_;
  std::vector<Address> addresses_;
  /// Shared, immutable after build; copies of a Topology share it.
  std::shared_ptr<const CompiledRouter> compiled_;
};

}  // namespace fairswap::overlay
