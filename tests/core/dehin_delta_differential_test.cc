// Differential proof for the incremental warm-state path: a Dehin that
// absorbs growth batches via ApplyAuxDelta must answer Deanonymize and
// DeanonymizeParallel bit-identically to a Dehin constructed from scratch
// over the grown graph, after every batch, for every target vertex. The
// incremental instance is queried *before* each batch too, so its match
// cache holds entries the epoch invalidation must correctly retire (a
// wholesale flush would also pass this test, but serving stale entries
// cannot). Each case runs on a heap base and on a mapped snapshot base:
// both grow through the same overlay.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "anon/kdd_anonymizer.h"
#include "core/dehin.h"
#include "hin/graph.h"
#include "hin/graph_builder.h"
#include "hin/graph_delta.h"
#include "hin/snapshot.h"
#include "synth/growth.h"
#include "synth/tqq_generator.h"
#include "util/random.h"
#include "temp_path.h"

namespace hinpriv::core {
namespace {

hin::Graph MakeAux(size_t num_users, uint64_t seed) {
  synth::TqqConfig config;
  config.num_users = num_users;
  util::Rng rng(seed);
  auto graph = synth::GenerateTqqNetwork(config, &rng);
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

hin::Graph AnonymizedFrom(const hin::Graph& aux, uint64_t seed) {
  anon::KddAnonymizer anonymizer;
  util::Rng rng(seed);
  auto published = anonymizer.Anonymize(aux, &rng);
  EXPECT_TRUE(published.ok());
  return std::move(published.value().graph);
}

void ExpectIdenticalToFresh(const Dehin& incremental, const hin::Graph& aux,
                            const hin::Graph& target,
                            const DehinConfig& config) {
  Dehin fresh(&aux, config);
  for (hin::VertexId vt = 0; vt < target.num_vertices(); ++vt) {
    const auto warm = incremental.Deanonymize(target, vt);
    const auto cold = fresh.Deanonymize(target, vt);
    ASSERT_EQ(warm, cold) << "serial answers diverge at target vertex " << vt;
    auto warm_par = incremental.DeanonymizeParallel(target, vt,
                                                    config.max_distance);
    auto cold_par = fresh.DeanonymizeParallel(target, vt,
                                              config.max_distance);
    ASSERT_TRUE(warm_par.ok());
    ASSERT_TRUE(cold_par.ok());
    ASSERT_EQ(warm_par.value(), cold_par.value())
        << "parallel answers diverge at target vertex " << vt;
    ASSERT_EQ(warm, warm_par.value())
        << "serial/parallel diverge at target vertex " << vt;
  }
}

// The base graph grows either in its heap arena's overlay or in the
// overlay over a mapped snapshot of it.
enum class Base { kHeap, kMapped };

hin::Graph Mapped(const hin::Graph& graph, const std::string& path) {
  EXPECT_TRUE(hin::SaveGraphSnapshot(graph, path).ok());
  auto mapped = hin::LoadGraphSnapshot(path);
  EXPECT_TRUE(mapped.ok());
  return std::move(mapped).value();
}

void RunBatches(DehinConfig config, size_t num_users, size_t batches,
                Base base) {
  const testing_support::TempPath temp("aux.snap");
  hin::Graph aux = MakeAux(num_users, 51);
  const hin::Graph target = AnonymizedFrom(aux, 52);
  if (base == Base::kMapped) aux = Mapped(aux, temp.path());

  Dehin incremental(&aux, config);
  // Warm the shared match cache so the batches below have real entries to
  // invalidate (and real survivors to keep serving).
  for (hin::VertexId vt = 0; vt < target.num_vertices(); ++vt) {
    (void)incremental.Deanonymize(target, vt);
  }

  synth::GrowthConfig growth;  // defaults: every growth channel fires
  util::Rng rng(53);
  for (size_t b = 0; b < batches; ++b) {
    auto delta =
        synth::SampleGrowthDelta(aux, growth, synth::TqqConfig{}, &rng);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    ASSERT_TRUE(hin::GraphBuilder::ApplyDelta(&aux, delta.value()).ok());
    ASSERT_TRUE(incremental.ApplyAuxDelta(delta.value()).ok());
    ExpectIdenticalToFresh(incremental, aux, target, config);
  }
}

TEST(DehinDeltaDifferentialTest, AnswersMatchFreshRebuildEveryBatch) {
  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  config.max_distance = 1;
  RunBatches(config, /*num_users=*/300, /*batches=*/3, Base::kHeap);
}

TEST(DehinDeltaDifferentialTest, MappedBaseMatchesFreshRebuildEveryBatch) {
  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  config.max_distance = 1;
  RunBatches(config, /*num_users=*/300, /*batches=*/3, Base::kMapped);
}

// Distance 2 exercises depth-2 cache entries, whose dirty set is the
// delta's 2-hop closure — the radius computation, not just the 1-hop base
// case.
TEST(DehinDeltaDifferentialTest, AnswersMatchAtDistanceTwo) {
  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  config.max_distance = 2;
  RunBatches(config, /*num_users=*/120, /*batches=*/2, Base::kHeap);
}

TEST(DehinDeltaDifferentialTest, MappedBaseMatchesAtDistanceTwo) {
  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  config.max_distance = 2;
  RunBatches(config, /*num_users=*/120, /*batches=*/2, Base::kMapped);
}

// With the ablations off, ApplyAuxDelta maintains only the graph-derived
// state that still exists; the answers must stay identical through the
// plain scan path.
TEST(DehinDeltaDifferentialTest, AnswersMatchWithoutIndexAndCache) {
  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  config.max_distance = 1;
  config.use_candidate_index = false;
  config.use_shared_cache = false;
  RunBatches(config, /*num_users=*/150, /*batches=*/2, Base::kHeap);
}

}  // namespace
}  // namespace hinpriv::core
