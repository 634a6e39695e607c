#ifndef HINPRIV_CORE_MATCH_CACHE_H_
#define HINPRIV_CORE_MATCH_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "hin/types.h"
#include "obs/metrics.h"
#include "util/hashing.h"

namespace hinpriv::core {

// Concurrent memo table for Dehin::LinkMatch results, keyed by
// (target vertex, aux vertex, depth). Replaces the per-Deanonymize-call
// std::unordered_map so depth-(n-1) sub-results computed while scoring one
// target vertex are reused by every later call whose neighborhood touches
// the same pair — within one thread and across the worker threads of
// EvaluateAttackParallel.
//
// The key never packs depth and vertex ids into shared bits: the vertex
// pair occupies a full 64-bit word (two uint32 ids) and depth selects a
// separate table, so no combination of max_distance or graph size can
// alias two distinct (vt, va, depth) triples. (The legacy packed key
// silently collided for max_distance > 15 or target ids >= 2^28.)
//
// Striped locking: entries hash to one of num_shards shards, each guarded
// by its own mutex, so concurrent Deanonymize calls rarely contend. A
// single-shard instance doubles as the per-call local memo when the shared
// cache is ablated.
//
// Growth deltas invalidate epoch-wise instead of flushing: every entry
// carries the epoch it was inserted in, and Invalidate() bumps the epoch
// while recording, per depth, which auxiliary vertices went stale. A
// lookup whose entry epoch is at or below the vertex's stale mark misses;
// untouched entries keep hitting across the batch. Invalidate() requires
// external exclusion against concurrent Lookup/Insert (the service's
// apply_delta holds its warm-state lock exclusively); stale entries are
// discarded lazily by overwriting inserts.
//
// Probe outcomes go to process-wide registry counters:
// match_cache/{hits,misses,inserts}, and match_cache/stale for the misses
// that found an invalidated entry (what a growth delta actually cost).
// There are no evictions to count: the cache is unbounded by design and
// dropped wholesale with its owning Dehin target state.
class MatchCache {
 public:
  explicit MatchCache(size_t num_shards = 1);

  MatchCache(const MatchCache&) = delete;
  MatchCache& operator=(const MatchCache&) = delete;

  static uint64_t PairKey(hin::VertexId vt, hin::VertexId va) {
    return (static_cast<uint64_t>(vt) << 32) | static_cast<uint64_t>(va);
  }

  // depth must be >= 1 (depth-0 queries never reach LinkMatch).
  std::optional<bool> Lookup(int depth, uint64_t pair_key) const {
    const Shard& shard = shards_[ShardIndex(pair_key)];
    std::optional<bool> result;
    bool stale = false;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const size_t d = static_cast<size_t>(depth) - 1;
      if (d < shard.by_depth.size()) {
        const auto& map = shard.by_depth[d];
        if (auto it = map.find(pair_key); it != map.end()) {
          if (EntryValid(d, pair_key, it->second.epoch)) {
            result = it->second.value;
          } else {
            stale = true;
          }
        }
      }
    }
    // Registry counters are striped and relaxed; bumped outside the shard
    // lock.
    (result.has_value() ? GlobalHitCounter() : GlobalMissCounter())
        ->Increment();
    if (stale) GlobalStaleCounter()->Increment();
    return result;
  }

  void Insert(int depth, uint64_t pair_key, bool value) {
    const uint32_t epoch = epoch_.load(std::memory_order_relaxed);
    Shard& shard = shards_[ShardIndex(pair_key)];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const size_t d = static_cast<size_t>(depth) - 1;
      if (d >= shard.by_depth.size()) shard.by_depth.resize(d + 1);
      // insert_or_assign so a stale entry from a previous epoch is
      // replaced in place; LinkMatch results are deterministic per epoch,
      // so same-epoch overwrites are value-identical.
      shard.by_depth[d].insert_or_assign(pair_key, Entry{value, epoch});
    }
    GlobalInsertCounter()->Increment();
  }

  // Epoch-scoped invalidation for one growth batch. dirty_by_depth[d]
  // lists the auxiliary vertices whose depth-(d+1) entries a delta may
  // have changed (the delta's d-hop closure); every (·, va, d+1) entry
  // inserted before this call goes stale, everything else survives.
  // Requires external exclusion against concurrent Lookup/Insert.
  void Invalidate(
      const std::vector<std::vector<hin::VertexId>>& dirty_by_depth);

  // Deepest depth any shard has memoized — bounds the closure radius an
  // invalidation needs. Takes every shard lock; not the hot path.
  size_t MaxPopulatedDepth() const;

  // Total entries across shards and depths, including lazily-discarded
  // stale ones (takes every shard lock; for observability, not the hot
  // path).
  size_t size() const;

 private:
  struct Entry {
    bool value = false;
    uint32_t epoch = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    // by_depth[d] memoizes depth d+1; depths appear lazily as the recursion
    // reaches them, so the vector stays as short as max_distance.
    std::vector<std::unordered_map<uint64_t, Entry>> by_depth;
  };

  // Registry instruments shared by every MatchCache in the process,
  // resolved once ("match_cache/hits|misses|inserts|stale").
  static obs::Counter* GlobalHitCounter();
  static obs::Counter* GlobalMissCounter();
  static obs::Counter* GlobalInsertCounter();
  static obs::Counter* GlobalStaleCounter();

  size_t ShardIndex(uint64_t pair_key) const {
    return util::Mix64(pair_key) & shard_mask_;
  }

  // An entry is valid when it postdates its aux vertex's per-depth stale
  // mark. dirty_ is only written under the callers' exclusion contract, so
  // plain reads here are race-free.
  bool EntryValid(size_t d, uint64_t pair_key, uint32_t entry_epoch) const {
    if (d < dirty_.size()) {
      const auto& row = dirty_[d];
      const hin::VertexId va =
          static_cast<hin::VertexId>(pair_key & 0xffffffffULL);
      if (va < row.size() && entry_epoch <= row[va]) return false;
    }
    return true;
  }

  std::vector<Shard> shards_;
  size_t shard_mask_;
  // Current insertion epoch; bumped by each invalidation. Atomic so
  // relaxed reads in Insert are well-defined without taking a lock.
  std::atomic<uint32_t> epoch_{1};
  // dirty_[d][va]: the epoch at which (·, va, depth d+1) entries went
  // stale; 0 (or out of range) means never invalidated.
  std::vector<std::vector<uint32_t>> dirty_;
};

}  // namespace hinpriv::core

#endif  // HINPRIV_CORE_MATCH_CACHE_H_
