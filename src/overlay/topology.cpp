#include "overlay/topology.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_set>

#include "common/log.hpp"
#include "overlay/compiled_router.hpp"

namespace fairswap::overlay {

ClosestNodeIndex::ClosestNodeIndex(const AddressSpace& space,
                                   std::span<const Address> nodes)
    : space_(space) {
  nodes_.emplace_back();  // root
  leaves_.reserve(nodes.size());
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
  if (leaf.leaf < 0) {
    leaf.leaf = static_cast<std::int32_t>(leaves_.size());
    leaves_.push_back(a);
    ++leaf_count_;
  }
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

Address ClosestNodeIndex::closest(Address target) const noexcept {
  return leaves_[closest_index(target)];
}

Topology::Topology(TopologyConfig config, AddressSpace space)
    : config_(std::move(config)), space_(space) {}

Topology Topology::build(const TopologyConfig& config, Rng& rng) {
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
  //    nodes in a 65536-slot space reject ~1.5% of draws).
  // fairswap-lint: allow(unordered-container) -- rejection-sampling dedup;
  // only insert().second is observed, never enumerated.
  std::unordered_set<AddressValue> seen;
  topo.addresses_.reserve(config.node_count);
  while (topo.addresses_.size() < config.node_count) {
    const Address a{static_cast<AddressValue>(rng.next_below(space.size()))};
    if (seen.insert(a.v).second) topo.addresses_.push_back(a);
  }
  for (NodeIndex i = 0; i < topo.addresses_.size(); ++i) {
    topo.index_.emplace(topo.addresses_[i], i);
  }

  // 2) Routing tables: for each node, group all other nodes by bucket and
  //    sample up to the bucket capacity uniformly without replacement
  //    (paper: "half of the network's nodes are candidates for bucket 0,
  //    but only k nodes are chosen").
  topo.tables_.reserve(config.node_count);
  std::vector<std::vector<NodeIndex>> candidates(
      static_cast<std::size_t>(space.bits()));
  for (NodeIndex i = 0; i < topo.addresses_.size(); ++i) {
    const Address self = topo.addresses_[i];
    RoutingTable table(space, self, config.buckets);

    for (auto& c : candidates) c.clear();
    for (NodeIndex j = 0; j < topo.addresses_.size(); ++j) {
      if (j == i) continue;
      const int b = space.bucket_index(self, topo.addresses_[j]);
      candidates[static_cast<std::size_t>(b)].push_back(j);
    }

    for (int b = 0; b < space.bits(); ++b) {
      auto& pool = candidates[static_cast<std::size_t>(b)];
      const std::size_t want = config.buckets.capacity(b);
      const auto picks = rng.sample_without_replacement(pool.size(), want);
      for (std::size_t p : picks) {
        table.try_add(topo.addresses_[pool[p]]);
      }
    }

    if (config.neighborhood_connect) {
      const int depth = table.neighborhood_depth(config.neighborhood_min_peers);
      for (NodeIndex j = 0; j < topo.addresses_.size(); ++j) {
        if (j == i) continue;
        const Address other = topo.addresses_[j];
        if (space.proximity(self, other) >= depth && !table.contains(other)) {
          // Neighborhood peers bypass the bucket capacity: real Swarm keeps
          // full connectivity within the neighborhood.
          // Rebuild with a widened bucket is overkill; instead we rely on
          // try_add and accept capacity-full rejections outside depth.
          table.try_add(other);
        }
      }
    }

    topo.tables_.push_back(std::move(table));
  }

  topo.closest_.emplace(space, std::span<const Address>(topo.addresses_));
  topo.compiled_ = std::make_shared<const CompiledRouter>(topo);

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

bool Topology::inject_table_entry(NodeIndex node, Address peer) {
  if (!tables_[node].try_add(peer)) return false;
  compiled_ = std::make_shared<const CompiledRouter>(*this);
  return true;
}

std::optional<NodeIndex> Topology::index_of(Address a) const noexcept {
  const auto it = index_.find(a);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

NodeIndex Topology::closest_node(Address target) const noexcept {
  // The trie was built over addresses_ in node order, so the leaf ordinal
  // is the NodeIndex — no hash lookup needed.
  return static_cast<NodeIndex>(closest_->closest_index(target));
}

std::size_t Topology::edge_count() const noexcept {
  std::size_t total = 0;
  for (const auto& t : tables_) total += t.size();
  return total;
}

}  // namespace fairswap::overlay
