// Network topology: node address assignment plus one static routing table
// per node, built deterministically from a seed.
//
// The paper builds a 1000-node network on a 16-bit address space, populates
// every bucket with up to k uniformly chosen candidates, and keeps the
// tables static for the entire experiment. The same topology object can be
// shared by many simulations ("Our tool allows to use the same overlay for
// multiple simulations").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/address.hpp"
#include "common/rng.hpp"
#include "overlay/routing_table.hpp"

namespace fairswap::overlay {

class CompiledRouter;

/// Dense node index in [0, node_count). All per-node experiment counters
/// are vectors indexed by NodeIndex.
using NodeIndex = std::uint32_t;

/// Answers "which node is XOR-closest to this address?" in O(bits) via a
/// binary trie over the node addresses. Because addresses are unique, the
/// closest node is unique (d(a,t) == d(b,t) implies a == b), which is what
/// makes the paper's "only the closest node stores a chunk" well defined.
class ClosestNodeIndex {
 public:
  ClosestNodeIndex(const AddressSpace& space, std::span<const Address> nodes);

  /// The node address closest to `target` (target may equal a node).
  [[nodiscard]] Address closest(Address target) const noexcept;

  /// The insertion ordinal of the closest address — equal to the NodeIndex
  /// when the index was built over Topology::addresses() in node order.
  [[nodiscard]] std::size_t closest_index(Address target) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return leaf_count_; }

  /// Writes closest_index(Address{a}) to out[a] for every address a of the
  /// space, in one walk of the trie. Where a trie node has one child, the
  /// empty half of its address range copies the filled half: a descent
  /// into the empty half takes the other child and then reads the same
  /// low bits. Requires a nonempty index and out.size() == 2^bits.
  void fill_closest(std::span<NodeIndex> out) const;

  /// Bytes held by the trie arrays.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return nodes_.size() * sizeof(TrieNode) + leaves_.size() * sizeof(Address);
  }

 private:
  struct TrieNode {
    std::int32_t child[2]{-1, -1};
    std::int32_t leaf{-1};
  };

  void insert(Address a);
  /// fill_closest below trie node `node`, whose address range is `range`.
  void fill_from(std::int32_t node, std::span<NodeIndex> range) const;

  AddressSpace space_;
  std::vector<TrieNode> nodes_;
  std::vector<Address> leaves_;
  std::size_t leaf_count_{0};
};

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

/// An immutable overlay: addresses, routing tables, and the closest-node
/// index. Value type; cheap to share by const reference.
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
  [[nodiscard]] std::optional<NodeIndex> index_of(Address a) const noexcept;
  [[nodiscard]] const RoutingTable& table(NodeIndex n) const noexcept {
    return tables_[n];
  }
  [[nodiscard]] std::span<const Address> addresses() const noexcept {
    return addresses_;
  }

  /// The node that stores content at `target` (globally XOR-closest node).
  [[nodiscard]] NodeIndex closest_node(Address target) const noexcept;

  /// The compiled (precomputed) routing hot path over these tables. Built
  /// once at the end of build(); rebuilt by inject_table_entry. See
  /// overlay/compiled_router.hpp.
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
  std::vector<RoutingTable> tables_;
  // fairswap-lint: allow(unordered-container) -- address->index lookup for
  // index_of() only, never enumerated (node order lives in addresses_).
  std::unordered_map<Address, NodeIndex> index_;
  std::optional<ClosestNodeIndex> closest_;
  /// Shared, immutable after build; copies of a Topology share it.
  std::shared_ptr<const CompiledRouter> compiled_;
};

}  // namespace fairswap::overlay
