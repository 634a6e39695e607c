#include "core/match_cache.h"

#include <algorithm>

namespace hinpriv::core {

namespace {

size_t RoundUpToPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

MatchCache::MatchCache(size_t num_shards)
    : shards_(RoundUpToPowerOfTwo(num_shards == 0 ? 1 : num_shards)),
      shard_mask_(shards_.size() - 1) {}

void MatchCache::Invalidate(
    const std::vector<std::vector<hin::VertexId>>& dirty_by_depth) {
  // Entries stamped <= `stale` for a dirty (depth, va) stop hitting; the
  // bumped epoch stamps everything inserted from now on.
  const uint32_t stale = epoch_.fetch_add(1, std::memory_order_relaxed);
  if (dirty_.size() < dirty_by_depth.size()) {
    dirty_.resize(dirty_by_depth.size());
  }
  for (size_t d = 0; d < dirty_by_depth.size(); ++d) {
    auto& row = dirty_[d];
    for (hin::VertexId va : dirty_by_depth[d]) {
      if (va >= row.size()) row.resize(va + 1, 0);
      row[va] = std::max(row[va], stale);
    }
  }
}

size_t MatchCache::MaxPopulatedDepth() const {
  size_t max_depth = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    max_depth = std::max(max_depth, shard.by_depth.size());
  }
  return max_depth;
}

size_t MatchCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& map : shard.by_depth) total += map.size();
  }
  return total;
}

obs::Counter* MatchCache::GlobalHitCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("match_cache/hits");
  return counter;
}

obs::Counter* MatchCache::GlobalMissCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("match_cache/misses");
  return counter;
}

obs::Counter* MatchCache::GlobalInsertCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("match_cache/inserts");
  return counter;
}

obs::Counter* MatchCache::GlobalStaleCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("match_cache/stale");
  return counter;
}

}  // namespace hinpriv::core
