#include "overlay/compiled_router.hpp"

#include <cassert>

namespace fairswap::overlay {

ClosestNodeIndex::ClosestNodeIndex(const AddressSpace& space,
                                   std::span<const Address> nodes)
    : space_(space) {
  nodes_.emplace_back();  // root
  for (Address a : nodes) insert(a);
}

void ClosestNodeIndex::insert(Address a) {
  std::int32_t cur = 0;
  for (int bit = space_.bits() - 1; bit >= 0; --bit) {
    const int b = static_cast<int>((a.v >> bit) & 1u);
    if (nodes_[static_cast<std::size_t>(cur)].child[b] < 0) {
      nodes_[static_cast<std::size_t>(cur)].child[b] =
          static_cast<std::int32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    cur = nodes_[static_cast<std::size_t>(cur)].child[b];
  }
  auto& leaf = nodes_[static_cast<std::size_t>(cur)];
  if (leaf.leaf < 0) leaf.leaf = leaf_count_++;
}

std::size_t ClosestNodeIndex::closest_index(Address target) const noexcept {
  assert(leaf_count_ > 0);
  std::int32_t cur = 0;
  for (int bit = space_.bits() - 1; bit >= 0; --bit) {
    const int want = static_cast<int>((target.v >> bit) & 1u);
    const auto& node = nodes_[static_cast<std::size_t>(cur)];
    if (node.child[want] >= 0) {
      cur = node.child[want];
    } else {
      cur = node.child[1 - want];
    }
  }
  return static_cast<std::size_t>(nodes_[static_cast<std::size_t>(cur)].leaf);
}

void ClosestNodeIndex::fill_closest(std::span<NodeIndex> out) const {
  assert(leaf_count_ > 0);
  assert(out.size() == std::size_t{1} << space_.bits());
  fill_from(0, out);
}

void ClosestNodeIndex::fill_from(std::int32_t node,
                                 std::span<NodeIndex> range) const {
  const TrieNode& at = nodes_[static_cast<std::size_t>(node)];
  if (range.size() == 1) {
    range[0] = static_cast<NodeIndex>(at.leaf);
    return;
  }
  const std::span<NodeIndex> low = range.first(range.size() / 2);
  const std::span<NodeIndex> high = range.subspan(range.size() / 2);
  if (at.child[0] >= 0) fill_from(at.child[0], low);
  if (at.child[1] >= 0) fill_from(at.child[1], high);
  if (at.child[0] < 0) std::copy(high.begin(), high.end(), low.begin());
  if (at.child[1] < 0) std::copy(low.begin(), low.end(), high.begin());
}

CompiledRouter::CompiledRouter(const AddressSpace& space,
                               std::span<const Address> addresses,
                               PeerArena arena)
    : bits_(space.bits()),
      node_count_(addresses.size()),
      offsets_(std::move(arena.offsets)),
      peers_(std::move(arena.peers)) {
  assert(offsets_.size() == node_count_ * static_cast<std::size_t>(bits_) + 1);
  assert(offsets_.back() == peers_.size());
  node_addr_.reserve(node_count_);
  for (const Address a : addresses) node_addr_.push_back(a.v);

  if (bits_ <= kDenseStorerBits) {
    storer_.resize(std::size_t{1} << bits_);
    ClosestNodeIndex(space, addresses).fill_closest(storer_);
  } else {
    closest_.emplace(space, addresses);
  }

  // A member of the network is the storer of its own address.
  peer_idx_.reserve(peers_.size());
  for (const AddressValue peer : peers_) {
    const NodeIndex storer = storer_of(Address{peer});
    peer_idx_.push_back(node_addr_[storer] == peer ? storer : kForeignPeer);
  }
  std::size_t max_slab = 0;
  for (NodeIndex n = 0; n < node_count_; ++n) {
    const auto [begin, end] = node_edge_range(n);
    max_slab = std::max<std::size_t>(max_slab, end - begin);
  }

  // The packed scan stores each peer as (address << shift) | local index;
  // it applies whenever the widest per-node slab index fits beside the
  // address in 32 bits (true for every practical configuration — e.g. a
  // 20-bit space leaves 12 bits, room for 4096 peers per node). The plain
  // addresses are packed in place; otherwise they stay for the generic
  // scan.
  if (bits_ < 32 && max_slab <= (std::size_t{1} << (32 - bits_))) {
    shift_ = 32 - bits_;
    local_mask_ = (std::uint32_t{1} << shift_) - 1;
    for (NodeIndex n = 0; n < node_count_; ++n) {
      const std::uint32_t slab_begin =
          offsets_[n * static_cast<std::size_t>(bits_)];
      const std::uint32_t slab_end =
          offsets_[(n + std::size_t{1}) * static_cast<std::size_t>(bits_)];
      for (std::uint32_t i = slab_begin; i < slab_end; ++i) {
        peers_[i] = (peers_[i] << shift_) | (i - slab_begin);
      }
    }
  }

  number_pairs();
}

void CompiledRouter::number_pairs() {
  // Pair (lo, hi) gets the number of pairs before it in (lo, hi) order:
  // all pairs of lower lo, plus lo's distinct partners below hi. Visiting
  // half-edges in ascending hi, each lo counts its partners as they come,
  // so no pair list is sorted. The edges with hi at their source are in
  // hi's own slab; those with hi at their target wait in one flat CSR of
  // upward edges, grouped by target.
  const auto n = static_cast<NodeIndex>(node_count_);
  std::vector<std::uint32_t> up_begin(n + std::size_t{1}, 0);
  for (NodeIndex u = 0; u < n; ++u) {
    const auto [begin, end] = node_edge_range(u);
    for (EdgeId e = begin; e < end; ++e) {
      const NodeIndex v = peer_idx_[e];
      if (v != kForeignPeer && u < v) ++up_begin[v + std::size_t{1}];
    }
  }
  for (NodeIndex v = 0; v < n; ++v) up_begin[v + 1] += up_begin[v];
  struct UpEdge {
    NodeIndex lo;
    EdgeId edge;
  };
  std::vector<UpEdge> up(up_begin[n]);
  {
    std::vector<std::uint32_t> next(up_begin.begin(), up_begin.end() - 1);
    for (NodeIndex u = 0; u < n; ++u) {
      const auto [begin, end] = node_edge_range(u);
      for (EdgeId e = begin; e < end; ++e) {
        const NodeIndex v = peer_idx_[e];
        if (v != kForeignPeer && u < v) up[next[v]++] = {u, e};
      }
    }
  }

  // Each edge gets its pair's rank among lo's partners.
  constexpr NodeIndex kNoPartner = 0xFFFFFFFFu;
  std::vector<NodeIndex> last_hi(n, kNoPartner);
  std::vector<std::uint32_t> partners(n + std::size_t{1}, 0);
  edge_pair_.assign(peer_idx_.size(), kNoPair);
  const auto visit = [&](NodeIndex lo, NodeIndex hi, EdgeId e) {
    if (last_hi[lo] != hi) {
      last_hi[lo] = hi;
      ++partners[lo + std::size_t{1}];
    }
    edge_pair_[e] = partners[lo + std::size_t{1}] - 1;
  };
  for (NodeIndex hi = 0; hi < n; ++hi) {
    const auto [begin, end] = node_edge_range(hi);
    for (EdgeId e = begin; e < end; ++e) {
      const NodeIndex lo = peer_idx_[e];
      if (lo != kForeignPeer && lo < hi) visit(lo, hi, e);
    }
    for (std::uint32_t i = up_begin[hi]; i < up_begin[hi + 1]; ++i) {
      visit(up[i].lo, hi, up[i].edge);
    }
  }

  // A rank offset by the pairs of every lower lo is the pair's number.
  for (NodeIndex lo = 0; lo < n; ++lo) partners[lo + 1] += partners[lo];
  pair_lo_.resize(partners[n]);
  pair_hi_.resize(partners[n]);
  for (NodeIndex u = 0; u < n; ++u) {
    const auto [begin, end] = node_edge_range(u);
    for (EdgeId e = begin; e < end; ++e) {
      if (edge_pair_[e] == kNoPair) continue;
      const NodeIndex v = peer_idx_[e];
      const NodeIndex lo = std::min(u, v);
      const std::uint32_t pair = partners[lo] + edge_pair_[e];
      edge_pair_[e] = pair;
      pair_lo_[pair] = lo;
      pair_hi_[pair] = std::max(u, v);
    }
  }
}

CompiledRouter::Hop CompiledRouter::next_hop_generic(
    std::uint32_t scan_begin, std::uint32_t scan_end, std::uint64_t threshold,
    Address target) const noexcept {
  // Reference scan for layouts the packed path cannot represent (32-bit
  // spaces or pathologically large slabs): a vectorizable min pass over
  // the plain addresses, then a locate pass — distinct addresses never
  // tie under XOR, so the located index is unique.
  if (scan_begin == scan_end) return {};
  const AddressValue* const addr = peers_.data();
  AddressValue best_dist = addr[scan_begin] ^ target.v;
  for (std::uint32_t i = scan_begin + 1; i < scan_end; ++i) {
    best_dist = std::min(best_dist, addr[i] ^ target.v);
  }
  // `threshold` is self's distance when the first-differing bucket was
  // empty (strictly-closer check), and UINT64_MAX (accept anything, even
  // a 32-bit-space peer at distance 2^32 - 1) when it was not.
  if (best_dist >= threshold) return {};
  std::uint32_t best = scan_begin;
  while ((addr[best] ^ target.v) != best_dist) ++best;
  const NodeIndex idx = peer_idx_[best];
  return idx == kForeignPeer ? Hop{} : Hop{idx, best};
}

Route CompiledRouter::route(NodeIndex origin, Address target,
                            std::size_t max_hops) const {
  Route r;
  route_into(origin, target, r, max_hops);
  return r;
}

void CompiledRouter::route_into(NodeIndex origin, Address target, Route& r,
                                std::size_t max_hops) const {
  if (max_hops == 0) max_hops = static_cast<std::size_t>(bits_) * 4;
  r.reset(target);
  r.path.push_back(origin);

  const NodeIndex storer = storer_of(target);
  NodeIndex cur = origin;
  while (cur != storer) {
    if (r.hops() >= max_hops) {
      r.truncated = true;
      break;
    }
    const Hop hop = next_hop_edge(cur, target);
    if (hop.next == kNoNextHop) break;  // dead end or unroutable table entry
    cur = hop.next;
    r.path.push_back(cur);
    r.edges.push_back(hop.edge);
  }
  r.reached_storer = (cur == storer);
}

void CompiledRouter::route_batch(std::span<const NodeIndex> origins,
                                 std::span<const Address> targets,
                                 std::span<Route> out,
                                 std::size_t max_hops) const {
  assert(origins.size() == targets.size());
  assert(out.size() == targets.size());
  if (max_hops == 0) max_hops = static_cast<std::size_t>(bits_) * 4;

  // Up to kLanes walks advance in lockstep; each outer iteration issues
  // one hop per active lane, so the lanes' independent cache misses
  // overlap instead of serializing. Lane results are written straight to
  // their slot in `out`, so completion order does not matter.
  constexpr std::size_t kLanes = 8;
  struct Lane {
    Route* route{nullptr};
    NodeIndex cur{0};
    NodeIndex storer{0};
    Address target{};
  };
  Lane lanes[kLanes];
  std::size_t active = 0;
  std::size_t next = 0;

  const auto feed = [&](Lane& lane) {
    while (next < targets.size()) {
      const std::size_t slot = next++;
      Route& r = out[slot];
      r.reset(targets[slot]);
      r.path.push_back(origins[slot]);
      lane.cur = origins[slot];
      lane.storer = storer_of(targets[slot]);
      lane.target = targets[slot];
      if (lane.cur == lane.storer) {
        r.reached_storer = true;  // zero-hop route: originator stores it
        continue;
      }
      lane.route = &r;
      return;
    }
    lane.route = nullptr;
  };

  for (std::size_t l = 0; l < kLanes; ++l) {
    feed(lanes[l]);
    if (lanes[l].route) ++active;
  }

  while (active > 0) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      Lane& lane = lanes[l];
      if (!lane.route) continue;
      Route& r = *lane.route;
      bool done = false;
      if (r.hops() >= max_hops) {
        r.truncated = true;
        done = true;
      } else {
        const Hop hop = next_hop_edge(lane.cur, lane.target);
        if (hop.next == kNoNextHop) {
          done = true;  // dead end or unroutable table entry
        } else {
          lane.cur = hop.next;
          r.path.push_back(hop.next);
          r.edges.push_back(hop.edge);
          if (hop.next == lane.storer) {
            r.reached_storer = true;
            done = true;
          }
        }
      }
      if (done) {
        feed(lane);
        if (!lane.route) --active;
      }
    }
  }
}

void CompiledRouter::route_batch(std::span<const NodeIndex> origins,
                                 std::span<const Address> targets,
                                 std::vector<Route>& out,
                                 std::size_t max_hops) const {
  out.resize(targets.size());
  route_batch(origins, targets, std::span<Route>(out), max_hops);
}

std::size_t CompiledRouter::memory_bytes() const noexcept {
  return node_addr_.size() * sizeof(AddressValue) +
         offsets_.size() * sizeof(std::uint32_t) +
         peers_.size() * sizeof(std::uint32_t) +
         peer_idx_.size() * sizeof(NodeIndex) +
         storer_.size() * sizeof(NodeIndex) +
         (closest_ ? closest_->memory_bytes() : 0) +
         edge_pair_.size() * sizeof(std::uint32_t) +
         pair_lo_.size() * sizeof(NodeIndex) +
         pair_hi_.size() * sizeof(NodeIndex);
}

}  // namespace fairswap::overlay
