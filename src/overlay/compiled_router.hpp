// Compiled routing — the precomputed hot path for forwarding Kademlia.
//
// Routing tables remain static for the entirety of an experiment (paper
// §III-A), so the greedy next-hop selection can be compiled once, as
// Topology::build finishes, into dense flat arrays and answered in a
// handful of loads per hop:
//
//  * a per-node, per-bucket CSR slab of the table peers over NodeIndex —
//    one contiguous arena for the whole network, and the only copy of the
//    routing tables: Topology::build samples every bucket straight into a
//    PeerArena and hands it over by move, and Topology::table(n) rebuilds
//    a node's RoutingTable from it (peer_address). No Address -> index
//    hash lookup per hop;
//  * peers stored pre-packed as (address << shift) | slab_local_index, so
//    one XOR-min reduction (which the compiler vectorizes) returns the
//    argmin peer directly — no branchy three-way bucket dispatch, no
//    second locate pass, no data-dependent branches beyond the scan
//    length itself;
//  * a dense storer table `storer_[address]` answering "which node stores
//    this chunk" with a single load (built for address spaces up to
//    kDenseStorerBits bits in one walk of a closest-node trie that is then
//    dropped; wider spaces keep the trie and descend it). A table peer
//    resolves to its NodeIndex as its own storer, with no Address -> index
//    hash lookup;
//  * a batched walker advancing several routes in lockstep so their
//    independent per-hop loads overlap — one file download routes all of
//    its chunks as one batch;
//  * the pair numbering of the SWAP ledger: every unordered pair of nodes
//    an arena edge joins gets a dense number in (lo, hi) order, and every
//    edge the number of its pair. It depends on the arena alone, so it is
//    computed once here, in linear time, and every accounting::Ledger over
//    this router reads it in place.
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
#include <optional>
#include <span>
#include <vector>

#include "common/address.hpp"
#include "overlay/forwarding.hpp"
#include "overlay/topology.hpp"

namespace fairswap::overlay {

/// Answers "which node is XOR-closest to this address?" in O(bits) via a
/// binary trie over the node addresses. Because addresses are unique, the
/// closest node is unique (d(a,t) == d(b,t) implies a == b), which is what
/// makes the paper's "only the closest node stores a chunk" well defined.
class ClosestNodeIndex {
 public:
  ClosestNodeIndex(const AddressSpace& space, std::span<const Address> nodes);

  /// The insertion ordinal of the address closest to `target` (target may
  /// equal a node) — the NodeIndex when the index was built over
  /// Topology::addresses() in node order.
  [[nodiscard]] std::size_t closest_index(Address target) const noexcept;

  /// Writes closest_index(Address{a}) to out[a] for every address a of the
  /// space, in one walk of the trie. Where a trie node has one child, the
  /// empty half of its address range copies the filled half: a descent
  /// into the empty half takes the other child and then reads the same
  /// low bits. Requires a nonempty index and out.size() == 2^bits.
  void fill_closest(std::span<NodeIndex> out) const;

  /// Bytes held by the trie.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return nodes_.size() * sizeof(TrieNode);
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
  std::int32_t leaf_count_{0};
};

/// Sentinel returned by CompiledRouter::next_hop when the walk cannot
/// continue: no strictly closer peer is known (dead end), or the greedy
/// winner is a table entry that does not belong to the network (a stale /
/// poisoned entry, which fails the route rather than invoking UB).
inline constexpr NodeIndex kNoNextHop = 0xFFFFFFFFu;

/// Every node's routing table as one CSR arena: node n's bucket b holds
/// peers[offsets[n·bits + b] .. offsets[n·bits + b + 1]), in the order the
/// peers joined it.
struct PeerArena {
  std::vector<std::uint32_t> offsets;  ///< node_count · bits + 1 entries
  std::vector<AddressValue> peers;
};

/// Immutable compiled form of every routing table in a Topology, and the
/// only copy of them. Built once per Topology (Topology::build, or
/// Topology::with_table_entry for a poisoned copy), owned by it and
/// shared by reference through Topology::compiled(). It reads the
/// topology's address array in place, so it must not outlive it; moving
/// the Topology keeps that array's buffer.
class CompiledRouter {
 public:
  /// Address spaces at most this wide get the dense per-address storer
  /// table (2^bits entries); only wider spaces keep a trie, and answer
  /// storer_of by descending it.
  static constexpr int kDenseStorerBits = 22;

  /// Takes over `arena`, the tables of the nodes at `addresses` (in
  /// NodeIndex order), resolves its peers and packs it in place.
  /// `addresses` is read in place and must outlive the router.
  CompiledRouter(const AddressSpace& space, std::span<const Address> addresses,
                 PeerArena arena);

  [[nodiscard]] int bits() const noexcept { return bits_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return addresses_.size();
  }

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
  /// Bit-identical to RoutingTable::next_hop with the winning address
  /// resolved to the node that owns it. Defined inline below: this is the
  /// per-hop inner loop of every simulation and must inline into the walk.
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
    return static_cast<NodeIndex>(closest_->closest_index(target));
  }

  /// Greedy forwarding walk from `origin` toward `target`, stopping at the
  /// storer (global closest node), at a dead end, or at the hop cap
  /// (Route::truncated).
  /// `max_hops` == 0 means the default 4x address bits.
  [[nodiscard]] Route route(NodeIndex origin, Address target,
                            std::size_t max_hops = 0) const;

  /// Allocation-free variant: writes into `out` (resetting it first), so
  /// a caller can route chunk after chunk through one path buffer.
  void route_into(NodeIndex origin, Address target, Route& out,
                  std::size_t max_hops = 0) const;

  /// Routes `origins[i] -> targets[i]` for every i, walking several routes
  /// in lockstep so their (independent) per-hop loads overlap — the greedy
  /// walk is a pointer chase, and memory-level parallelism across routes
  /// is where the remaining latency hides. out[i] is bit-identical to
  /// route(origins[i], targets[i]), written over the caller's Route in
  /// place, so every route keeps its path and edge buffers' capacity.
  /// Requires origins.size() == targets.size() == out.size(). This is the
  /// simulator's per-file hot path: one file download routes its
  /// 100..1000 chunks as one batch into the first n slots of a buffer
  /// that only grows, so no route is destroyed and rebuilt between files.
  void route_batch(std::span<const NodeIndex> origins,
                   std::span<const Address> targets, std::span<Route> out,
                   std::size_t max_hops = 0) const;

  /// As above, after resizing `out` to targets.size(). Shrinking destroys
  /// the routes past the new size, so only the surviving prefix keeps its
  /// buffers; callers that route batches of varying size use the span
  /// form over a grow-only buffer instead.
  void route_batch(std::span<const NodeIndex> origins,
                   std::span<const Address> targets, std::vector<Route>& out,
                   std::size_t max_hops = 0) const;

  /// True when the packed single-pass scan applies (every node's peer
  /// slab index fits next to the address in 32 bits). Wider layouts use
  /// the two-pass reference scan. Exposed for tests.
  [[nodiscard]] bool packed() const noexcept { return shift_ > 0; }

  /// Total bytes held by the compiled arrays (CSR slabs, peers, storer
  /// table or, in wide spaces, the closest-node trie, pair numbering) —
  /// the memory cost of the precompute.
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

  /// The table address a directed arena edge points at, unpacked.
  [[nodiscard]] Address peer_address(EdgeId e) const noexcept {
    return Address{peers_[e] >> shift_};
  }

  /// Half-open range of arena edge ids whose source is `node` (its slab).
  [[nodiscard]] std::pair<EdgeId, EdgeId> node_edge_range(
      NodeIndex node) const noexcept {
    const std::size_t row =
        static_cast<std::size_t>(node) * static_cast<std::size_t>(bits_);
    return {offsets_[row], offsets_[row + static_cast<std::size_t>(bits_)]};
  }

  /// Half-open range of arena edge ids in `node`'s bucket `bucket`.
  [[nodiscard]] std::pair<EdgeId, EdgeId> bucket_edge_range(
      NodeIndex node, int bucket) const noexcept {
    const std::size_t cell =
        static_cast<std::size_t>(node) * static_cast<std::size_t>(bits_) +
        static_cast<std::size_t>(bucket);
    return {offsets_[cell], offsets_[cell + 1]};
  }

  // --- Pair numbering (the ledger's balance slots) ---

  /// edge_pairs() entry of an edge that joins no pair (a foreign target).
  static constexpr std::uint32_t kNoPair = 0xFFFFFFFFu;

  /// Unordered node pairs joined by at least one arena edge, in either
  /// direction, numbered densely in ascending (lo, hi) order.
  [[nodiscard]] std::size_t pair_count() const noexcept {
    return pair_lo_.size();
  }

  /// Per arena edge, the number of the pair it joins (kNoPair for a
  /// foreign target); both directions of a pair share one number.
  [[nodiscard]] std::span<const std::uint32_t> edge_pairs() const noexcept {
    return edge_pair_;
  }

  /// Per pair number, its lower and higher NodeIndex.
  [[nodiscard]] std::span<const NodeIndex> pair_lo() const noexcept {
    return pair_lo_;
  }
  [[nodiscard]] std::span<const NodeIndex> pair_hi() const noexcept {
    return pair_hi_;
  }

 private:
  /// Fills edge_pair_, pair_lo_ and pair_hi_ from the arena.
  void number_pairs();

  [[nodiscard]] Hop next_hop_generic(std::uint32_t scan_begin,
                                     std::uint32_t scan_end,
                                     std::uint64_t threshold,
                                     Address target) const noexcept;

  int bits_;
  std::span<const Address> addresses_;    ///< node -> address (not owned)
  /// Packed-scan shift: peers are stored as (address << shift_) | local
  /// slab index. 0 disables the packed path (wide space or huge slab).
  int shift_{0};
  std::uint32_t local_mask_{0};
  std::vector<std::uint32_t> offsets_;    ///< CSR, node_count * bits + 1
  /// Per edge, (addr << shift_) | local idx when packed(), else the plain
  /// address the generic scan reads.
  std::vector<std::uint32_t> peers_;
  std::vector<NodeIndex> peer_idx_;       ///< parallel NodeIndex (resolution)
  std::vector<NodeIndex> storer_;         ///< 2^bits, or empty (wide space)
  std::optional<ClosestNodeIndex> closest_;  ///< storer_of in wide spaces
  std::vector<std::uint32_t> edge_pair_;  ///< edge -> pair number, or kNoPair
  std::vector<NodeIndex> pair_lo_;        ///< pair number -> lower node
  std::vector<NodeIndex> pair_hi_;        ///< pair number -> higher node
};

inline CompiledRouter::Hop CompiledRouter::next_hop_edge(
    NodeIndex from, Address target) const noexcept {
  const AddressValue self = addresses_[from].v;
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
    const std::uint32_t* const pp = peers_.data();
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
