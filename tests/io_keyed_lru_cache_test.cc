#include "io/keyed_lru_cache.h"

#include <memory>
#include <string>
#include <tuple>

#include "gtest/gtest.h"

namespace hdidx::io {
namespace {

using StringCache = KeyedLruCache<std::string, int>;

std::shared_ptr<const int> Value(int v) {
  return std::make_shared<const int>(v);
}

TEST(KeyedLruCacheTest, GetPutCountersAndHitRate) {
  StringCache cache(2);
  EXPECT_EQ(cache.Get("a"), nullptr);
  cache.Put("a", Value(1));
  const auto hit = cache.Get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);
}

TEST(KeyedLruCacheTest, EvictionOrderIsLruUnderRepeatedTouches) {
  StringCache cache(3);
  cache.Put("a", Value(1));
  cache.Put("b", Value(2));
  cache.Put("c", Value(3));
  // Touch pattern a, c, a: LRU order (stalest first) is now b, c, a.
  cache.Get("a");
  cache.Get("c");
  cache.Get("a");
  cache.Put("d", Value(4));  // evicts b
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get("b"), nullptr);
  ASSERT_NE(cache.Get("c"), nullptr);
  // Recency (most recent first) is now c, d, a — so inserting evicts a.
  cache.Put("e", Value(5));
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(KeyedLruCacheTest, EvictedValueSurvivesThroughSharedPtr) {
  StringCache cache(1);
  cache.Put("a", Value(7));
  const auto held = cache.Get("a");
  cache.Put("b", Value(8));  // evicts "a" from the cache
  EXPECT_EQ(cache.Get("a"), nullptr);
  ASSERT_NE(held, nullptr);  // but the caller's handle stays valid
  EXPECT_EQ(*held, 7);
}

TEST(KeyedLruCacheTest, PutRefreshesExistingKeyWithoutEviction) {
  StringCache cache(2);
  cache.Put("a", Value(1));
  cache.Put("b", Value(2));
  cache.Put("a", Value(3));  // refresh, no growth
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(*cache.Get("a"), 3);
  cache.Put("c", Value(4));  // evicts b (a was refreshed more recently)
  EXPECT_EQ(cache.Get("b"), nullptr);
  ASSERT_NE(cache.Get("a"), nullptr);
}

TEST(KeyedLruCacheTest, ZeroCapacityNeverStores) {
  StringCache cache(0);
  cache.Put("a", Value(1));
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(KeyedLruCacheTest, TupleKeysWork) {
  // The service keys caches by (dataset, method, memory, ...) tuples.
  using Key = std::tuple<std::string, std::string, size_t, uint64_t>;
  KeyedLruCache<Key, double> cache(4);
  const Key k1{"d1", "resampled", 1000, 7};
  const Key k2{"d1", "resampled", 1000, 8};
  cache.Put(k1, std::make_shared<const double>(1.5));
  ASSERT_NE(cache.Get(k1), nullptr);
  EXPECT_EQ(cache.Get(k2), nullptr);
}

}  // namespace
}  // namespace hdidx::io
