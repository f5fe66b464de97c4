#include "overlay/topology.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "common/log.hpp"
#include "overlay/compiled_router.hpp"

namespace fairswap::overlay {

namespace {

/// The nodes laid out once per prefix depth d = 1..bits, depth d at offset
/// (d - 1) * n: grouped by their first d address bits in ascending prefix
/// order, and in ascending NodeIndex order inside each group. Each depth
/// is a stable partition of the one above, group by group, on the bit the
/// depth adds.
std::vector<NodeIndex> prefix_layouts(std::span<const Address> addresses,
                                      int bits) {
  const std::size_t n = addresses.size();
  std::vector<NodeIndex> layout(static_cast<std::size_t>(bits) * n);
  for (int d = 1; d <= bits; ++d) {
    const int bit = bits - d;
    NodeIndex* const out = layout.data() + static_cast<std::size_t>(d - 1) * n;
    const NodeIndex* const above = d == 1 ? nullptr : out - n;
    const auto node_at = [above](std::size_t p) {
      return above != nullptr ? above[p] : static_cast<NodeIndex>(p);
    };
    // The depth d - 1 group of a node: its address above `bit`.
    const auto group = [&](std::size_t p) {
      return std::uint64_t{addresses[node_at(p)].v} >> (bit + 1);
    };
    const auto high = [&](NodeIndex v) {
      return ((addresses[v].v >> bit) & 1u) != 0;
    };
    for (std::size_t begin = 0; begin < n;) {
      std::size_t end = begin;
      std::size_t lows = 0;
      for (const std::uint64_t g = group(begin); end < n && group(end) == g;
           ++end) {
        if (!high(node_at(end))) ++lows;
      }
      std::size_t low = begin;
      std::size_t upper = begin + lows;
      for (std::size_t p = begin; p < end; ++p) {
        const NodeIndex v = node_at(p);
        out[high(v) ? upper++ : low++] = v;
      }
      begin = end;
    }
  }
  return layout;
}

}  // namespace

Topology::Topology(TopologyConfig config, AddressSpace space)
    : config_(std::move(config)), space_(space) {}

Topology::Topology(Topology&&) noexcept = default;
Topology& Topology::operator=(Topology&&) noexcept = default;
Topology::~Topology() = default;

Topology Topology::build(const TopologyConfig& config, Rng& rng) {
  // AddressSpace clamps its width; a config must not build a space other
  // than the one it names.
  if (config.address_bits < 1 || config.address_bits > 32) {
    throw std::invalid_argument("address_bits must be in [1, 32], got " +
                                std::to_string(config.address_bits));
  }
  AddressSpace space(config.address_bits);
  // One node has no peer to route through: every request would count as
  // delivered over zero transmissions. A zero k leaves every table empty.
  if (config.node_count < 2) {
    throw std::invalid_argument("node_count must be at least 2");
  }
  if (config.buckets.k == 0) {
    throw std::invalid_argument("buckets.k must be > 0");
  }
  if (config.node_count > space.size()) {
    throw std::invalid_argument("node_count exceeds address-space size");
  }

  Topology topo(config, space);

  // 1) Unique uniform addresses (rejection sampling; the paper's 1000
  //    nodes in a 65536-slot space reject ~1.5% of draws). The values
  //    drawn so far sit in an open-addressing set kept at most half full.
  constexpr std::uint64_t kNoAddress = ~std::uint64_t{0};
  std::vector<std::uint64_t> seen(std::bit_ceil(2 * config.node_count),
                                  kNoAddress);
  const std::size_t seen_mask = seen.size() - 1;
  topo.addresses_.reserve(config.node_count);
  while (topo.addresses_.size() < config.node_count) {
    const std::uint64_t v = rng.next_below(space.size());
    std::size_t h = (v * 0x9e3779b97f4a7c15ULL) & seen_mask;
    while (seen[h] != kNoAddress && seen[h] != v) h = (h + 1) & seen_mask;
    if (seen[h] == v) continue;
    seen[h] = v;
    topo.addresses_.push_back(Address{static_cast<AddressValue>(v)});
  }

  // 2) Routing tables: each bucket samples up to its capacity uniformly
  //    without replacement from its candidates, the other nodes in that
  //    bucket in ascending NodeIndex order (paper: "half of the network's
  //    nodes are candidates for bucket 0, but only k nodes are chosen").
  //    Bucket b's candidates are the nodes that share self's first b bits
  //    and differ at bit b: one contiguous run of the depth-(b + 1)
  //    layout, so no node scans the others.
  const auto bits = static_cast<std::size_t>(space.bits());
  const std::size_t n = topo.addresses_.size();
  const std::vector<NodeIndex> layout =
      prefix_layouts(topo.addresses_, space.bits());
  // The deepest layout orders the nodes by address; on it, every prefix
  // group is the same range as in any shallower layout.
  std::vector<AddressValue> sorted(n);
  for (std::size_t p = 0; p < n; ++p) {
    sorted[p] = topo.addresses_[layout[(bits - 1) * n + p]].v;
  }
  // Calls visit(b, pool) for node i's buckets in ascending b.
  // [lo, hi) is self's group at depth b: the nodes sharing its first b
  // bits. It splits at `mid` into the halves whose bit b is 0 and 1; the
  // half without self is bucket b's pool. Once self is alone, every deeper
  // pool is empty and would draw nothing.
  const auto for_each_pool = [&](NodeIndex i, const auto& visit) {
    const AddressValue self = topo.addresses_[i].v;
    std::size_t lo = 0;
    std::size_t hi = n;
    for (std::size_t b = 0; b < bits && hi - lo > 1; ++b) {
      const std::size_t bit = bits - 1 - b;
      const AddressValue* const first = sorted.data();
      const auto mid = static_cast<std::size_t>(
          std::partition_point(
              first + lo, first + hi,
              [bit](AddressValue a) { return ((a >> bit) & 1u) == 0; }) -
          first);
      std::size_t pool_lo = mid;
      std::size_t pool_hi = hi;
      if (((self >> bit) & 1u) != 0) {
        pool_lo = lo;
        pool_hi = mid;
        lo = mid;
      } else {
        hi = mid;
      }
      visit(b, std::span(layout).subspan(b * n + pool_lo, pool_hi - pool_lo));
    }
  };
  const auto capacity = [&config](std::size_t b) {
    return config.buckets.capacity(static_cast<int>(b));
  };

  // Every bucket takes min(pool, capacity) picks, so a first pass over the
  // pools sizes the router's arena exactly; the second samples into it,
  // node by node and bucket by bucket.
  PeerArena arena;
  arena.offsets.assign(n * bits + 1, 0);
  for (NodeIndex i = 0; i < n; ++i) {
    for_each_pool(i, [&](std::size_t b, std::span<const NodeIndex> pool) {
      arena.offsets[i * bits + b + 1] =
          static_cast<std::uint32_t>(std::min(pool.size(), capacity(b)));
    });
  }
  std::partial_sum(arena.offsets.begin(), arena.offsets.end(),
                   arena.offsets.begin());
  arena.peers.resize(arena.offsets.back());
  std::vector<std::size_t> picks;
  SampleScratch scratch;
  for (NodeIndex i = 0; i < n; ++i) {
    for_each_pool(i, [&](std::size_t b, std::span<const NodeIndex> pool) {
      rng.sample_without_replacement(pool.size(), capacity(b), picks, scratch);
      AddressValue* out = arena.peers.data() + arena.offsets[i * bits + b];
      for (const std::size_t p : picks) *out++ = topo.addresses_[pool[p]].v;
    });
  }

  topo.compiled_ = std::make_unique<const CompiledRouter>(
      space, topo.addresses_, std::move(arena));

  FAIRSWAP_LOG(kInfo, "overlay")
      << "built topology: " << topo.node_count() << " nodes, "
      << space.bits() << "-bit space, k=" << config.buckets.k
      << (config.buckets.k_bucket0 ? " (bucket0 k=" +
              std::to_string(config.buckets.k_bucket0) + ")" : std::string{})
      << ", edges=" << topo.edge_count()
      << ", compiled routing " << topo.compiled_->memory_bytes() << " bytes";
  return topo;
}

const CompiledRouter& Topology::compiled() const noexcept { return *compiled_; }

RoutingTable Topology::table(NodeIndex n) const {
  RoutingTable table(space_, addresses_[n], config_.buckets);
  const auto [begin, end] = compiled_->node_edge_range(n);
  for (EdgeId e = begin; e < end; ++e) {
    table.try_add(compiled_->peer_address(e));
  }
  return table;
}

std::optional<Topology> Topology::with_table_entry(NodeIndex node,
                                                   Address peer) const {
  if (!table(node).try_add(peer)) return std::nullopt;
  // The arena again, unpacked, with `peer` appended to its bucket.
  const int bits = space_.bits();
  const int at = space_.bucket_index(addresses_[node], peer);
  PeerArena arena;
  for (NodeIndex n = 0; n < node_count(); ++n) {
    for (int b = 0; b < bits; ++b) {
      arena.offsets.push_back(static_cast<std::uint32_t>(arena.peers.size()));
      const auto [begin, end] = compiled_->bucket_edge_range(n, b);
      for (EdgeId e = begin; e < end; ++e) {
        arena.peers.push_back(compiled_->peer_address(e).v);
      }
      if (n == node && b == at) arena.peers.push_back(peer.v);
    }
  }
  arena.offsets.push_back(static_cast<std::uint32_t>(arena.peers.size()));
  Topology poisoned(config_, space_);
  poisoned.addresses_ = addresses_;
  poisoned.compiled_ = std::make_unique<const CompiledRouter>(
      space_, poisoned.addresses_, std::move(arena));
  return poisoned;
}

std::size_t Topology::edge_count() const noexcept {
  return compiled_->edge_count();
}

}  // namespace fairswap::overlay
