#include "overlay/routing_table.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace fairswap::overlay {

RoutingTable::RoutingTable(AddressSpace space, Address self,
                           BucketPolicy policy)
    : space_(space),
      self_(self),
      policy_(policy),
      buckets_(static_cast<std::size_t>(space.bits())) {
  assert(space_.contains(self));
}

bool RoutingTable::try_add(Address peer) {
  if (peer == self_ || !space_.contains(peer)) return false;
  const auto b = static_cast<std::size_t>(space_.bucket_index(self_, peer));
  auto& bucket = buckets_[b];
  if (bucket.size() >= policy_.capacity(static_cast<int>(b))) return false;
  if (std::find(bucket.begin(), bucket.end(), peer) != bucket.end()) {
    return false;
  }
  bucket.push_back(peer);
  return true;
}

bool RoutingTable::contains(Address peer) const noexcept {
  if (peer == self_ || !space_.contains(peer)) return false;
  const auto b = static_cast<std::size_t>(space_.bucket_index(self_, peer));
  const auto& bucket = buckets_[b];
  return std::find(bucket.begin(), bucket.end(), peer) != bucket.end();
}

std::span<const Address> RoutingTable::bucket(int b) const noexcept {
  if (b < 0 || b >= bucket_count()) return {};
  return buckets_[static_cast<std::size_t>(b)];
}

std::size_t RoutingTable::bucket_size(int b) const noexcept {
  if (b < 0 || b >= bucket_count()) return 0;
  return buckets_[static_cast<std::size_t>(b)].size();
}

std::size_t RoutingTable::size() const noexcept {
  std::size_t total = 0;
  for (const auto& b : buckets_) total += b.size();
  return total;
}

std::optional<Address> RoutingTable::closest_peer(
    Address target) const noexcept {
  std::optional<Address> best;
  AddressValue best_dist = 0;
  for (const auto& bucket : buckets_) {
    for (Address peer : bucket) {
      const AddressValue d = xor_distance(peer, target);
      if (!best || d < best_dist || (d == best_dist && peer.v < best->v)) {
        best = peer;
        best_dist = d;
      }
    }
  }
  return best;
}

std::optional<Address> RoutingTable::next_hop(Address target) const noexcept {
  if (target == self_) return std::nullopt;
  const int first_diff = space_.bucket_index(self_, target);

  // Closest peer within one bucket (ties toward the smaller address).
  auto best_in =
      [&](const std::vector<Address>& bucket) -> std::optional<Address> {
    std::optional<Address> best;
    AddressValue best_dist = 0;
    for (Address peer : bucket) {
      const AddressValue d = xor_distance(peer, target);
      if (!best || d < best_dist || (d == best_dist && peer.v < best->v)) {
        best = peer;
        best_dist = d;
      }
    }
    return best;
  };

  // Peers in the first-differing bucket match the target at that bit and
  // are strictly closer than self and than peers of every other bucket.
  if (const auto hit =
          best_in(buckets_[static_cast<std::size_t>(first_diff)])) {
    return hit;
  }

  // Otherwise only deeper buckets (longer shared prefix with self) can
  // still be strictly closer; shallower buckets are strictly farther.
  std::optional<Address> best;
  AddressValue best_dist = xor_distance(self_, target);
  for (int b = first_diff + 1; b < bucket_count(); ++b) {
    for (Address peer : buckets_[static_cast<std::size_t>(b)]) {
      const AddressValue d = xor_distance(peer, target);
      if (d < best_dist || (best && d == best_dist && peer.v < best->v)) {
        best = peer;
        best_dist = d;
      }
    }
  }
  return best;
}

std::optional<Address> RoutingTable::next_hop_naive(
    Address target) const noexcept {
  const auto best = closest_peer(target);
  if (!best) return std::nullopt;
  if (xor_distance(*best, target) >= xor_distance(self_, target)) {
    return std::nullopt;
  }
  return best;
}

std::vector<Address> RoutingTable::all_peers() const {
  std::vector<Address> out;
  out.reserve(size());
  for (const auto& b : buckets_) out.insert(out.end(), b.begin(), b.end());
  return out;
}

std::string RoutingTable::render() const {
  std::ostringstream out;
  out << "node " << AddressSpace::to_decimal(self_) << " ("
      << space_.to_binary(self_) << ")\n";
  for (int b = 0; b < bucket_count(); ++b) {
    const auto peers = bucket(b);
    if (peers.empty()) continue;
    out << "  bucket " << b << ":";
    for (Address p : peers) out << " " << space_.to_binary(p);
    out << "\n";
  }
  return out.str();
}

}  // namespace fairswap::overlay
