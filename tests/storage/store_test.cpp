#include "storage/store.hpp"

#include <gtest/gtest.h>

namespace fairswap::storage {
namespace {

TEST(ChunkStore, MissCountsAndReturnsFalse) {
  ChunkStore store(0);
  EXPECT_FALSE(store.lookup(Address{1}));
}

TEST(ChunkStore, CacheDisabledWithZeroCapacity) {
  ChunkStore store(0);
  store.cache(Address{9});
  EXPECT_FALSE(store.contains(Address{9}));
  EXPECT_EQ(store.cached_count(), 0u);
}

TEST(ChunkStore, CacheStoresUpToCapacity) {
  ChunkStore store(2);
  store.cache(Address{1});
  store.cache(Address{2});
  EXPECT_TRUE(store.contains(Address{1}));
  EXPECT_TRUE(store.contains(Address{2}));
  EXPECT_EQ(store.cached_count(), 2u);
}

TEST(ChunkStore, EvictsLeastRecentlyUsed) {
  ChunkStore store(2);
  store.cache(Address{1});
  store.cache(Address{2});
  store.cache(Address{3});  // evicts 1
  EXPECT_FALSE(store.contains(Address{1}));
  EXPECT_TRUE(store.contains(Address{2}));
  EXPECT_TRUE(store.contains(Address{3}));
}

TEST(ChunkStore, LookupRefreshesRecency) {
  ChunkStore store(2);
  store.cache(Address{1});
  store.cache(Address{2});
  EXPECT_TRUE(store.lookup(Address{1}));  // 1 becomes most recent
  store.cache(Address{3});                // evicts 2, not 1
  EXPECT_TRUE(store.contains(Address{1}));
  EXPECT_FALSE(store.contains(Address{2}));
}

TEST(ChunkStore, CacheRefreshesRecencyOnReinsert) {
  ChunkStore store(2);
  store.cache(Address{1});
  store.cache(Address{2});
  store.cache(Address{1});  // refresh, no duplicate
  EXPECT_EQ(store.cached_count(), 2u);
  store.cache(Address{3});  // evicts 2
  EXPECT_TRUE(store.contains(Address{1}));
  EXPECT_FALSE(store.contains(Address{2}));
}

}  // namespace
}  // namespace fairswap::storage
