#include "core/match_cache.h"

#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace hinpriv::core {
namespace {

using hin::VertexId;

TEST(MatchCacheTest, DepthsDoNotAlias) {
  MatchCache cache(4);
  const uint64_t key = MatchCache::PairKey(7, 9);
  cache.Insert(1, key, true);
  cache.Insert(17, key, false);  // would collide under 4-bit depth packing
  EXPECT_EQ(cache.Lookup(1, key), std::optional<bool>(true));
  EXPECT_EQ(cache.Lookup(17, key), std::optional<bool>(false));
  EXPECT_EQ(cache.Lookup(2, key), std::nullopt);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(MatchCacheTest, LargeVertexIdsDoNotAlias) {
  MatchCache cache(1);
  // Under the legacy 36-bit shift, vt and vt + 2^28 collided.
  const VertexId big = (1u << 28) + 3;
  cache.Insert(1, MatchCache::PairKey(3, 5), true);
  cache.Insert(1, MatchCache::PairKey(big, 5), false);
  EXPECT_EQ(cache.Lookup(1, MatchCache::PairKey(3, 5)),
            std::optional<bool>(true));
  EXPECT_EQ(cache.Lookup(1, MatchCache::PairKey(big, 5)),
            std::optional<bool>(false));
}

TEST(MatchCacheTest, ConcurrentInsertsAndLookups) {
  MatchCache cache(8);
  constexpr int kThreads = 4;
  constexpr uint32_t kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (uint32_t i = 0; i < kPerThread; ++i) {
        const uint64_t key = MatchCache::PairKey(t, i);
        cache.Insert(1 + static_cast<int>(i % 3), key, i % 2 == 0);
        auto hit = cache.Lookup(1 + static_cast<int>(i % 3), key);
        ASSERT_TRUE(hit.has_value());
        ASSERT_EQ(*hit, i % 2 == 0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.size(), static_cast<size_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace hinpriv::core
