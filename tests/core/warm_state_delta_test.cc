// Incremental warm-state maintenance under growth deltas, component by
// component: CandidateIndex::ApplyDelta must reproduce a from-scratch
// rebuild's bucket order exactly, NeighborhoodStats::ApplyDelta must serve
// the same sorted strength spans as a fresh build (through the patch table
// or after compaction), and MatchCache epochs must invalidate exactly the
// dirty (depth, vertex) entries while untouched entries keep hitting, and
// Dehin::ApplyAuxDelta must tell a skipped invalidation from an empty one.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidate_index.h"
#include "core/dehin.h"
#include "core/match_cache.h"
#include "core/matchers.h"
#include "core/neighborhood_stats.h"
#include "hin/graph.h"
#include "hin/graph_builder.h"
#include "hin/graph_delta.h"
#include "hin/tqq_schema.h"
#include "obs/metrics.h"
#include "synth/growth.h"
#include "synth/tqq_generator.h"
#include "util/random.h"

namespace hinpriv::core {
namespace {

hin::Graph MakeAux(size_t users, uint64_t seed) {
  synth::TqqConfig config;
  config.num_users = users;
  util::Rng rng(seed);
  auto graph = synth::GenerateTqqNetwork(config, &rng);
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

// Applies `batches` sampled growth deltas to `aux`, invoking `check` after
// every batch with the delta just applied.
template <typename Check>
void DriveBatches(hin::Graph* aux, size_t batches, uint64_t seed,
                  const synth::GrowthConfig& growth, Check&& check) {
  util::Rng rng(seed);
  for (size_t b = 0; b < batches; ++b) {
    auto delta =
        synth::SampleGrowthDelta(*aux, growth, synth::TqqConfig{}, &rng);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    ASSERT_TRUE(hin::GraphBuilder::ApplyDelta(aux, delta.value()).ok());
    check(delta.value());
  }
}

TEST(WarmStateDeltaTest, CandidateIndexOrderIdenticalToRebuild) {
  hin::Graph aux = MakeAux(600, 17);
  const MatchOptions options = DefaultTqqMatchOptions();
  CandidateIndex incremental(aux, options);
  synth::GrowthConfig growth;  // defaults exercise every growth channel
  DriveBatches(&aux, 4, 18, growth, [&](const hin::GraphDelta& delta) {
    incremental.ApplyDelta(delta);
    CandidateIndex rebuilt(aux, options);
    EXPECT_TRUE(incremental.OrderIdenticalTo(rebuilt));
  });
}

// Without a primary growable attribute the buckets are sorted by vertex id
// alone; the incremental inserts must keep that order too.
TEST(WarmStateDeltaTest, CandidateIndexNoPrimaryAttribute) {
  hin::Graph aux = MakeAux(400, 19);
  MatchOptions options = DefaultTqqMatchOptions();
  options.growable_attributes.clear();
  options.exact_attributes = {hin::kGenderAttr, hin::kYobAttr};
  CandidateIndex incremental(aux, options);
  synth::GrowthConfig growth;
  DriveBatches(&aux, 3, 20, growth, [&](const hin::GraphDelta& delta) {
    incremental.ApplyDelta(delta);
    CandidateIndex rebuilt(aux, options);
    EXPECT_TRUE(incremental.OrderIdenticalTo(rebuilt));
  });
}

TEST(WarmStateDeltaTest, NeighborhoodStatsSpansIdenticalToRebuild) {
  const MatchOptions options = DefaultTqqMatchOptions();
  // Without in-edge slots a batch patches only sources and new vertices;
  // with them (all 8 slots) destinations too.
  for (const bool use_in_edges : {false, true}) {
    SCOPED_TRACE(use_in_edges ? "in-edge slots" : "out-edge slots");
    hin::Graph aux = MakeAux(1000, 21);
    NeighborhoodStats incremental(aux, options.link_types, use_in_edges);
    // Small enough batches that the accumulated patch set stays under the
    // n/4 compaction threshold for all four batches — the assertions below
    // must exercise the patch-table read path, not a post-compaction full
    // build. (Edge and strength fractions are relative to E ~ 10x V.)
    synth::GrowthConfig growth;
    growth.new_user_fraction = 0.004;
    growth.new_edge_fraction = 0.001;
    growth.strength_growth_prob = 0.0005;
    DriveBatches(&aux, 4, 22, growth, [&](const hin::GraphDelta& delta) {
      incremental.ApplyDelta(aux, delta);
      EXPECT_GT(incremental.num_patched(), 0u);
      EXPECT_GE(incremental.num_patch_rows(), incremental.num_patched());
      NeighborhoodStats fresh(aux, options.link_types, use_in_edges);
      ASSERT_EQ(incremental.num_slots(), fresh.num_slots());
      for (size_t slot = 0; slot < fresh.num_slots(); ++slot) {
        for (hin::VertexId v = 0; v < aux.num_vertices(); ++v) {
          const auto a = incremental.SortedStrengths(slot, v);
          const auto b = fresh.SortedStrengths(slot, v);
          ASSERT_EQ(a.size(), b.size()) << "slot " << slot << " v " << v;
          for (size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i], b[i]) << "slot " << slot << " v " << v;
          }
        }
      }
    });
    // Vertices touched by more than one batch got a fresh row each time;
    // their old rows are orphaned, not rewritten.
    EXPECT_GT(incremental.num_patch_rows(), incremental.num_patched());
  }
}

TEST(WarmStateDeltaTest, NeighborhoodStatsCompactsWhenPatchGrows) {
  hin::Graph aux = MakeAux(300, 23);
  const MatchOptions options = DefaultTqqMatchOptions();
  NeighborhoodStats stats(aux, options.link_types, /*use_in_edges=*/true);
  synth::GrowthConfig growth;
  growth.new_user_fraction = 0.30;  // huge batch: touches > n/4 vertices
  growth.new_edge_fraction = 0.40;
  util::Rng rng(24);
  auto delta =
      synth::SampleGrowthDelta(aux, growth, synth::TqqConfig{}, &rng);
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(hin::GraphBuilder::ApplyDelta(&aux, delta.value()).ok());
  stats.ApplyDelta(aux, delta.value());
  // Compaction folded the patch back into the base arenas.
  EXPECT_EQ(stats.num_patched(), 0u);
  EXPECT_EQ(stats.base_vertices(), aux.num_vertices());
  NeighborhoodStats fresh(aux, options.link_types, /*use_in_edges=*/true);
  for (size_t slot = 0; slot < fresh.num_slots(); ++slot) {
    for (hin::VertexId v = 0; v < aux.num_vertices(); ++v) {
      const auto a = stats.SortedStrengths(slot, v);
      const auto b = fresh.SortedStrengths(slot, v);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
    }
  }
}

// dehin/delta_dirty_vertices counts the closure a batch invalidated, and
// dehin/delta_invalidation_skips counts the batches that had no cache
// depth to invalidate. At n = 1 only root pairs are matched and roots are
// never memoized, so a batch is a skip that dirties nothing; at n = 2 the
// depth-1 entries are real and the batch dirties its closure.
TEST(WarmStateDeltaTest, SkippedInvalidationIsNotAnEmptyClosure) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* dirty = registry.GetCounter("dehin/delta_dirty_vertices");
  obs::Counter* skips = registry.GetCounter("dehin/delta_invalidation_skips");
  for (int distance : {1, 2}) {
    SCOPED_TRACE("n = " + std::to_string(distance));
    hin::Graph aux = MakeAux(200, 25);
    const hin::Graph target = MakeAux(200, 25);
    DehinConfig config;
    config.match = DefaultTqqMatchOptions();
    config.max_distance = distance;
    Dehin dehin(&aux, config);
    for (hin::VertexId vt = 0; vt < 40; ++vt) {
      (void)dehin.Deanonymize(target, vt);
    }
    const uint64_t dirty_before = dirty->Value();
    const uint64_t skips_before = skips->Value();
    DriveBatches(&aux, 1, 26, synth::GrowthConfig{},
                 [&](const hin::GraphDelta& delta) {
                   ASSERT_TRUE(dehin.ApplyAuxDelta(delta).ok());
                 });
    if (distance == 1) {
      EXPECT_EQ(skips->Value(), skips_before + 1);
      EXPECT_EQ(dirty->Value(), dirty_before);
    } else {
      EXPECT_EQ(skips->Value(), skips_before);
      EXPECT_GT(dirty->Value(), dirty_before);
    }
  }
}

TEST(WarmStateDeltaTest, MatchCacheEpochInvalidation) {
  MatchCache cache(4);
  // Depth 1 entries for aux vertices 10 and 20; depth 2 for 10.
  cache.Insert(1, MatchCache::PairKey(1, 10), true);
  cache.Insert(1, MatchCache::PairKey(2, 20), false);
  cache.Insert(2, MatchCache::PairKey(3, 10), true);
  EXPECT_EQ(cache.MaxPopulatedDepth(), 2u);

  // Dirty aux vertex 10 at depth 1 only (dirty_by_depth[0]).
  cache.Invalidate({{10}});
  EXPECT_FALSE(cache.Lookup(1, MatchCache::PairKey(1, 10)).has_value());
  auto survivor = cache.Lookup(1, MatchCache::PairKey(2, 20));
  ASSERT_TRUE(survivor.has_value());
  EXPECT_FALSE(*survivor);
  auto deeper = cache.Lookup(2, MatchCache::PairKey(3, 10));
  ASSERT_TRUE(deeper.has_value());  // depth 2 row was not dirtied
  EXPECT_TRUE(*deeper);
  EXPECT_EQ(cache.TotalStats().stale, 1u);

  // Re-inserting after the invalidation postdates the stale mark.
  cache.Insert(1, MatchCache::PairKey(1, 10), false);
  auto refreshed = cache.Lookup(1, MatchCache::PairKey(1, 10));
  ASSERT_TRUE(refreshed.has_value());
  EXPECT_FALSE(*refreshed);

  // A deeper dirty set hits both depths for vertex 10.
  cache.Invalidate({{10}, {10}});
  EXPECT_FALSE(cache.Lookup(1, MatchCache::PairKey(1, 10)).has_value());
  EXPECT_FALSE(cache.Lookup(2, MatchCache::PairKey(3, 10)).has_value());
  EXPECT_TRUE(cache.Lookup(1, MatchCache::PairKey(2, 20)).has_value());
}

TEST(WarmStateDeltaTest, MatchCacheInvalidateAll) {
  MatchCache cache(2);
  cache.Insert(1, MatchCache::PairKey(1, 5), true);
  cache.Insert(3, MatchCache::PairKey(2, 6), false);
  cache.InvalidateAll();
  EXPECT_FALSE(cache.Lookup(1, MatchCache::PairKey(1, 5)).has_value());
  EXPECT_FALSE(cache.Lookup(3, MatchCache::PairKey(2, 6)).has_value());
  // Entries inserted after the flush are live again.
  cache.Insert(1, MatchCache::PairKey(1, 5), true);
  EXPECT_TRUE(cache.Lookup(1, MatchCache::PairKey(1, 5)).has_value());
  // The stale entries are still counted in size() until overwritten.
  EXPECT_EQ(cache.size(), 2u);
}

}  // namespace
}  // namespace hinpriv::core
