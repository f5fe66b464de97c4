// Per-node chunk storage: an unbounded authoritative store (for chunks a
// node is responsible for) plus an optional bounded LRU cache (for chunks
// it forwarded — the §V caching extension).
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "common/address.hpp"

namespace fairswap::storage {

/// Counters describing store effectiveness.
struct StoreStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t insertions{0};
  std::uint64_t evictions{0};

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

/// A node-local chunk index keyed by overlay address. The simulator does
/// not need payload bytes to measure fairness, so the store tracks
/// addresses only.
class ChunkStore {
 public:
  /// `cache_capacity` bounds the LRU cache; 0 disables caching entirely
  /// (the paper's baseline behaviour).
  explicit ChunkStore(std::size_t cache_capacity = 0);

  /// Marks this node the authoritative storer of `chunk` (never evicted).
  void store_authoritative(Address chunk);

  /// Inserts into the LRU cache (no-op when capacity is 0). Authoritative
  /// entries are not duplicated into the cache.
  void cache(Address chunk);

  /// True if the chunk is available locally (authoritative or cached);
  /// updates hit/miss counters and LRU recency.
  bool lookup(Address chunk);

  /// Availability check without touching counters or recency.
  [[nodiscard]] bool contains(Address chunk) const;

  [[nodiscard]] std::size_t authoritative_count() const noexcept {
    return owned_.size();
  }
  [[nodiscard]] std::size_t cached_count() const noexcept {
    return lru_map_.size();
  }
  [[nodiscard]] std::size_t cache_capacity() const noexcept {
    return capacity_;
  }
  [[nodiscard]] const StoreStats& stats() const noexcept { return stats_; }

 private:
  void touch(std::list<Address>::iterator it);

  std::size_t capacity_;
  // fairswap-lint: allow(unordered-container) -- has()/owns() membership
  // lookup only; eviction order lives in the lru_ list, not hash order.
  std::unordered_map<Address, char> owned_;
  std::list<Address> lru_;  // front = most recent
  // fairswap-lint: allow(unordered-container) -- address->LRU-position
  // lookup only, never enumerated.
  std::unordered_map<Address, std::list<Address>::iterator> lru_map_;
  StoreStats stats_;
};

}  // namespace fairswap::storage
