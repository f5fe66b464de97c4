#include "storage/store.hpp"

namespace fairswap::storage {

ChunkStore::ChunkStore(std::size_t cache_capacity)
    : capacity_(cache_capacity) {}

void ChunkStore::touch(std::list<Address>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void ChunkStore::cache(Address chunk) {
  if (capacity_ == 0) return;
  const auto it = lru_map_.find(chunk);
  if (it != lru_map_.end()) {
    touch(it->second);
    return;
  }
  lru_.push_front(chunk);
  lru_map_[chunk] = lru_.begin();
  if (lru_map_.size() > capacity_) {
    const Address victim = lru_.back();
    lru_.pop_back();
    lru_map_.erase(victim);
  }
}

bool ChunkStore::lookup(Address chunk) {
  const auto it = lru_map_.find(chunk);
  if (it == lru_map_.end()) return false;
  touch(it->second);
  return true;
}

bool ChunkStore::contains(Address chunk) const {
  return lru_map_.count(chunk) > 0;
}

}  // namespace fairswap::storage
