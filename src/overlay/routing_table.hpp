// Kademlia prefix-bucket routing tables.
//
// A node with address `self` files every other known peer under the bucket
// indexed by the first bit in which the peer's address differs from self's
// (equivalently, their proximity order). Bucket 0 covers roughly half the
// network (peers whose first bit differs), bucket 1 a quarter, and so on
// (paper §III-A, Fig. 3). Each bucket holds at most k peers; Swarm defaults
// to k = 4, the original Kademlia paper recommends k = 20 — this very
// parameter is the subject of the paper's evaluation.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/address.hpp"

namespace fairswap::overlay {

/// Per-bucket capacity configuration. `bucket_capacity(i)` returns the
/// capacity of bucket i, allowing the §V "increase k only for bucket zero"
/// ablation.
struct BucketPolicy {
  /// Default capacity applied to every bucket.
  std::size_t k{4};
  /// Optional override for bucket 0 only (0 = no override). The paper's
  /// discussion asks "what happens in payment distribution if we only
  /// increase the k for a particular bucket, e.g., bucket zero".
  std::size_t k_bucket0{0};

  [[nodiscard]] std::size_t capacity(int bucket) const noexcept {
    if (bucket == 0 && k_bucket0 > 0) return k_bucket0;
    return k;
  }

  friend bool operator==(const BucketPolicy&, const BucketPolicy&) = default;
};

/// A routing table: `bits` buckets of at most k peers each, plus the
/// owner's address. Tables are plain values; the topology builder
/// constructs one per node and keeps them static for a whole experiment
/// (paper: "routing tables remain static for the entirety of the
/// experiments").
class RoutingTable {
 public:
  RoutingTable(AddressSpace space, Address self, BucketPolicy policy);

  [[nodiscard]] Address self() const noexcept { return self_; }
  [[nodiscard]] const AddressSpace& space() const noexcept { return space_; }
  [[nodiscard]] const BucketPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] int bucket_count() const noexcept { return space_.bits(); }

  /// Attempts to add a peer. Returns false (and does not modify the table)
  /// if the peer equals self, is already present, or its bucket is full.
  bool try_add(Address peer);

  /// True if `peer` is in the table.
  [[nodiscard]] bool contains(Address peer) const noexcept;

  /// Peers in bucket `b` (unordered).
  [[nodiscard]] std::span<const Address> bucket(int b) const noexcept;

  /// Number of peers in bucket `b` / in the whole table.
  [[nodiscard]] std::size_t bucket_size(int b) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept;

  /// The peer in this table strictly closest (XOR) to `target`, excluding
  /// self. Returns nullopt for an empty table. Ties are broken toward the
  /// numerically smaller address so routing is deterministic.
  [[nodiscard]] std::optional<Address> closest_peer(
      Address target) const noexcept;

  /// Like closest_peer but only returns a peer that is strictly closer to
  /// `target` than this table's owner — the forwarding-Kademlia step.
  ///
  /// Implementation note: this is the simulator's hottest operation, so it
  /// prunes by bucket structure instead of scanning the whole table. With
  /// L = the first bit where self and target differ: peers in bucket L
  /// match the target at bit L and are therefore strictly closer than both
  /// self and every other bucket's peers; if bucket L is empty, only
  /// deeper buckets can still hold a strictly closer peer. Equivalence
  /// with the naive scan is enforced by property tests.
  [[nodiscard]] std::optional<Address> next_hop(Address target) const noexcept;

  /// Reference implementation of next_hop (full linear scan). Used by the
  /// property tests that validate the pruned fast path.
  [[nodiscard]] std::optional<Address> next_hop_naive(
      Address target) const noexcept;

  /// The neighborhood depth: the shallowest bucket index d such that all
  /// buckets deeper than d hold fewer than `min_peers` peers. Swarm defines
  /// the neighborhood as "the proximity at which the node cannot connect
  /// to at least four other nodes" (paper §III-A).
  [[nodiscard]] int neighborhood_depth(
      std::size_t min_peers = 4) const noexcept;

  /// All peers across all buckets (bucket order; used for audits/metrics).
  [[nodiscard]] std::vector<Address> all_peers() const;

  /// Renders the table in the style of the paper's Fig. 3 (binary
  /// addresses grouped per bucket).
  [[nodiscard]] std::string render() const;

 private:
  AddressSpace space_;
  Address self_;
  BucketPolicy policy_;
  std::vector<std::vector<Address>> buckets_;
};

}  // namespace fairswap::overlay
