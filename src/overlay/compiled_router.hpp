// Compiled routing — the precomputed hot path for forwarding Kademlia.
//
// Routing tables remain static for the entirety of an experiment (paper
// §III-A), so the greedy next-hop selection can be compiled once, right
// after Topology::build, into dense flat arrays and answered in a handful
// of loads per hop:
//
//  * a per-node, per-bucket CSR slab of the table peers over NodeIndex —
//    one contiguous arena for the whole network instead of a
//    vector<vector<Address>> per node, and no Address -> index hash
//    lookup per hop;
//  * peers stored pre-packed as (address << shift) | slab_local_index, so
//    one XOR-min reduction (which the compiler vectorizes) returns the
//    argmin peer directly — no branchy three-way bucket dispatch, no
//    second locate pass, no data-dependent branches beyond the scan
//    length itself;
//  * a dense storer table `storer_[address]` answering "which node stores
//    this chunk" with a single load (built for address spaces up to
//    kDenseStorerBits bits; wider spaces fall back to the trie);
//  * a batched walker advancing several routes in lockstep so their
//    independent per-hop loads overlap — one file download routes all of
//    its chunks as one batch.
//
// This is the only router: every simulation routes through it. Its answers
// are bit-identical to RoutingTable::next_hop and to the Address-keyed
// greedy walk it replaced, which is kept as a test oracle
// (tests/oracles/forwarding_router.hpp, and reference_run.hpp for a whole
// simulation over it); tests/overlay/compiled_router_test.cpp and
// tests/core/compiled_equivalence_test.cpp enforce the equivalence.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/address.hpp"
#include "overlay/forwarding.hpp"
#include "overlay/topology.hpp"

namespace fairswap::overlay {

/// Sentinel returned by CompiledRouter::next_hop when the walk cannot
/// continue: no strictly closer peer is known (dead end), or the greedy
/// winner is a table entry that does not belong to the network (a stale /
/// poisoned entry, which fails the route rather than invoking UB).
inline constexpr NodeIndex kNoNextHop = 0xFFFFFFFFu;

/// Immutable compiled form of every routing table in a Topology. Built by
/// Topology::build (and rebuilt on fault injection); shared by reference
/// through Topology::compiled(). Self-contained: it copies the addresses
/// and table structure it needs, so it stays valid when the owning
/// Topology is moved.
class CompiledRouter {
 public:
  /// Address spaces at most this wide get the dense per-address storer
  /// table (2^bits entries); wider spaces answer storer_of via the trie.
  static constexpr int kDenseStorerBits = 22;

  explicit CompiledRouter(const Topology& topo);

  [[nodiscard]] int bits() const noexcept { return bits_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return node_count_; }

  /// One greedy step: the winning peer plus the arena id of the traversed
  /// directed edge (the index of the winner in the CSR peer slabs). The
  /// edge id is what the ledger keys its balance slots by, so every
  /// route resolves its accounting slots here, for free, instead of
  /// hashing node pairs per hop. next == kNoNextHop implies edge ==
  /// kNoEdge.
  struct Hop {
    NodeIndex next{kNoNextHop};
    EdgeId edge{kNoEdge};
  };

  /// The peer `from` forwards a request for `target` to, or kNoNextHop.
  /// Bit-identical to RoutingTable::next_hop resolved through
  /// Topology::index_of. Defined inline below: this is the per-hop inner
  /// loop of every simulation and must inline into the walk.
  [[nodiscard]] NodeIndex next_hop(NodeIndex from,
                                   Address target) const noexcept {
    return next_hop_edge(from, target).next;
  }

  /// next_hop plus the arena edge id of the step taken. The edge id is a
  /// byproduct of the argmin the scan computes anyway, so this costs
  /// nothing over next_hop.
  [[nodiscard]] Hop next_hop_edge(NodeIndex from,
                                  Address target) const noexcept;

  /// The node storing content at `target` (globally XOR-closest node).
  [[nodiscard]] NodeIndex storer_of(Address target) const noexcept {
    if (!storer_.empty()) return storer_[target.v];
    return static_cast<NodeIndex>(closest_.closest_index(target));
  }

  /// Greedy forwarding walk from `origin` toward `target`, stopping at the
  /// storer (global closest node), at a dead end, or at the hop cap
  /// (Route::truncated).
  /// `max_hops` == 0 means the default 4x address bits.
  [[nodiscard]] Route route(NodeIndex origin, Address target,
                            std::size_t max_hops = 0) const;

  /// Allocation-free variant: writes into `out` (resetting it first), so
  /// the simulation can route millions of chunks through one path buffer.
  void route_into(NodeIndex origin, Address target, Route& out,
                  std::size_t max_hops = 0) const;

  /// Routes `origins[i] -> targets[i]` for every i, walking several routes
  /// in lockstep so their (independent) per-hop loads overlap — the greedy
  /// walk is a pointer chase, and memory-level parallelism across routes
  /// is where the remaining latency hides. out[i] is bit-identical to
  /// route(origins[i], targets[i]); `out` is resized and its per-route
  /// path buffers are reused. Requires origins.size() == targets.size().
  /// This is the simulator's per-file hot path: one file download routes
  /// its 100..1000 chunks as one batch.
  void route_batch(std::span<const NodeIndex> origins,
                   std::span<const Address> targets, std::vector<Route>& out,
                   std::size_t max_hops = 0) const;

  /// True when the packed single-pass scan applies (every node's peer
  /// slab index fits next to the address in 32 bits). Wider layouts use
  /// the two-pass reference scan. Exposed for tests.
  [[nodiscard]] bool packed() const noexcept { return shift_ > 0; }

  /// Total bytes held by the compiled arrays (CSR slabs, packed peers,
  /// storer table, closest-node trie) — the memory cost of the precompute.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  // --- Edge arena introspection (consumed by accounting::Ledger) ---

  /// peer_idx_ sentinel: table address not assigned to any node. An edge
  /// whose target is foreign is never traversed (next_hop fails the route
  /// instead) and never gets a ledger slot.
  static constexpr NodeIndex kForeignPeer = 0xFFFFFFFFu;

  /// Number of directed edges in the CSR peer arena (== the sum of all
  /// routing-table sizes). Valid edge ids are [0, edge_count).
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return peer_idx_.size();
  }

  /// Target node of a directed arena edge (kForeignPeer for stale /
  /// poisoned table entries).
  [[nodiscard]] NodeIndex edge_target(EdgeId e) const noexcept {
    return peer_idx_[e];
  }

  /// Half-open range of arena edge ids whose source is `node` (its slab).
  [[nodiscard]] std::pair<EdgeId, EdgeId> node_edge_range(
      NodeIndex node) const noexcept {
    const std::size_t row =
        static_cast<std::size_t>(node) * static_cast<std::size_t>(bits_);
    return {offsets_[row], offsets_[row + static_cast<std::size_t>(bits_)]};
  }

 private:
  [[nodiscard]] Hop next_hop_generic(std::uint32_t scan_begin,
                                     std::uint32_t scan_end,
                                     std::uint64_t threshold,
                                     Address target) const noexcept;

  AddressSpace space_;
  int bits_;
  std::size_t node_count_;
  /// Packed-scan shift: peers are stored as (address << shift_) | local
  /// slab index. 0 disables the packed path (wide space or huge slab).
  int shift_{0};
  std::uint32_t local_mask_{0};
  std::vector<AddressValue> node_addr_;   ///< node -> address value
  std::vector<std::uint32_t> offsets_;    ///< CSR, node_count * bits + 1
  std::vector<std::uint32_t> peer_packed_;///< (addr << shift_) | local idx
  std::vector<AddressValue> peer_addr_;   ///< plain addresses (generic path)
  std::vector<NodeIndex> peer_idx_;       ///< parallel NodeIndex (resolution)
  std::vector<NodeIndex> storer_;         ///< 2^bits, or empty (wide space)
  ClosestNodeIndex closest_;              ///< storer fallback for wide spaces
};

inline CompiledRouter::Hop CompiledRouter::next_hop_edge(
    NodeIndex from, Address target) const noexcept {
  const AddressValue self = node_addr_[from];
  const AddressValue x = self ^ target.v;
  if (x == 0) return {};  // target is this node's own address
  // First differing bit == bucket index (see AddressSpace::bucket_index).
  const int bucket = bits_ - std::bit_width(x);
  const std::size_t cell = static_cast<std::size_t>(from) *
                               static_cast<std::size_t>(bits_) +
                           static_cast<std::size_t>(bucket);
  const std::uint32_t slab_begin =
      offsets_[cell - static_cast<std::size_t>(bucket)];
  const std::uint32_t slab_end =
      offsets_[cell - static_cast<std::size_t>(bucket) +
               static_cast<std::size_t>(bits_)];
  const std::uint32_t b0 = offsets_[cell];
  const std::uint32_t b1 = offsets_[cell + 1];

  // Any peer of the (nonempty) first-differing bucket is strictly closer
  // than self — scan [b0, b1) unconditionally. If the bucket is empty,
  // only deeper buckets (longer shared prefix with self) can be strictly
  // closer; they are the contiguous CSR tail [b1, slab_end), guarded by
  // the strictly-closer-than-self threshold. Selecting the range and the
  // threshold branchlessly keeps the hop free of data-dependent branches.
  const bool empty = (b0 == b1);
  const std::uint32_t scan_begin = empty ? b1 : b0;
  const std::uint32_t scan_end = empty ? slab_end : b1;

  if (shift_ != 0) {
    // Packed path: one XOR-min reduction yields (distance, local index);
    // distinct addresses never tie under XOR, so the argmin is exact. The
    // all-ones threshold is unreachable for a real bucket peer (the
    // packed path requires bits <= 31), so nonempty buckets accept their
    // argmin unconditionally, exactly like the reference.
    const AddressValue threshold = empty ? x : 0xFFFFFFFFu;
    const std::uint32_t tshift = target.v << shift_;
    const std::uint32_t* const pp = peer_packed_.data();
    std::uint32_t best = 0xFFFFFFFFu;
    for (std::uint32_t i = scan_begin; i < scan_end; ++i) {
      best = std::min(best, pp[i] ^ tshift);
    }
    if ((best >> shift_) >= threshold) return {};
    const EdgeId edge = slab_begin + (best & local_mask_);
    const NodeIndex idx = peer_idx_[edge];
    return idx == kForeignPeer ? Hop{} : Hop{idx, edge};
  }
  return next_hop_generic(scan_begin, scan_end,
                          empty ? std::uint64_t{x} : UINT64_MAX, target);
}

}  // namespace fairswap::overlay
