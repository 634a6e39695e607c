// Incremental warm-state maintenance under growth deltas, component by
// component: CandidateIndex::ApplyDelta must reproduce a from-scratch
// rebuild's bucket order exactly, MatchCache epochs must invalidate exactly
// the dirty (depth, vertex) entries while untouched entries keep hitting,
// and Dehin::ApplyAuxDelta must tell a skipped invalidation from an empty
// one.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidate_index.h"
#include "core/dehin.h"
#include "core/match_cache.h"
#include "core/matchers.h"
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
  obs::Counter* stale =
      obs::MetricsRegistry::Global().GetCounter("match_cache/stale");
  const uint64_t stale_before = stale->Value();
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
  EXPECT_EQ(stale->Value(), stale_before + 1);

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

}  // namespace
}  // namespace hinpriv::core
