// Per-node chunk cache: a bounded LRU set of the chunks a node forwarded
// (the §V caching extension). A chunk's storer is not recorded here: it is
// the node closest to the chunk's address, which CompiledRouter::storer_of
// names.
#pragma once

#include <cstddef>
#include <list>
#include <unordered_map>

#include "common/address.hpp"

namespace fairswap::storage {

/// A node-local chunk index keyed by overlay address. The simulator does
/// not need payload bytes to measure fairness, so the store tracks
/// addresses only.
class ChunkStore {
 public:
  /// `cache_capacity` bounds the LRU cache; 0 disables caching entirely
  /// (the paper's baseline behaviour).
  explicit ChunkStore(std::size_t cache_capacity = 0);

  /// Inserts into the LRU cache (no-op when capacity is 0).
  void cache(Address chunk);

  /// True if the chunk is cached; a hit refreshes its LRU recency.
  bool lookup(Address chunk);

  /// Availability check without touching recency.
  [[nodiscard]] bool contains(Address chunk) const;

  [[nodiscard]] std::size_t cached_count() const noexcept {
    return lru_map_.size();
  }
  [[nodiscard]] std::size_t cache_capacity() const noexcept {
    return capacity_;
  }

 private:
  void touch(std::list<Address>::iterator it);

  std::size_t capacity_;
  std::list<Address> lru_;  // front = most recent
  // fairswap-lint: allow(unordered-container) -- address->LRU-position
  // lookup only, never enumerated.
  std::unordered_map<Address, std::list<Address>::iterator> lru_map_;
};

}  // namespace fairswap::storage
