// Reference differential for the compiled profile predicate. The default
// Dehin compares profile rows in its candidate-index walk, in its no-index
// full scan and in LinkMatch; a Dehin whose entity_match_override wraps
// EntityAttributesMatch builds no rows and no index, so it is the paper's
// literal scan. Every candidate set must be identical between the two:
//
// * ProfileRowReferenceTest — serially and from 2- and 4-worker pools, at
//   n = 0, 1, 2, across growth-aware and exact semantics, in-edges on and
//   off, no growable attributes, heap and mapped auxiliary graphs, and a
//   published target beside an independently generated one (whose tuples
//   often have no auxiliary class).
// * ProfileRowDeltaTest — the delta cases rows can get wrong: a new class
//   that a cached target state already holds, a bumped attribute listed as
//   exact, and primary bumps that reorder a bucket. After every batch the
//   incremental index must also equal a rebuild.

#include <algorithm>
#include <array>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "anon/kdd_anonymizer.h"
#include "core/candidate_index.h"
#include "core/dehin.h"
#include "core/matchers.h"
#include "eval/experiment.h"
#include "exec/executor.h"
#include "hin/graph.h"
#include "hin/graph_builder.h"
#include "hin/graph_delta.h"
#include "hin/snapshot.h"
#include "hin/tqq_schema.h"
#include "synth/growth.h"
#include "synth/tqq_generator.h"
#include "util/random.h"
#include "temp_path.h"

namespace hinpriv::core {
namespace {

hin::Graph MakeNetwork(size_t users, uint64_t seed) {
  synth::TqqConfig config;
  config.num_users = users;
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

DehinConfig ReferenceConfig(const DehinConfig& config) {
  DehinConfig reference = config;
  const MatchOptions options = config.match;
  reference.entity_match_override =
      [options](const hin::Graph& target, hin::VertexId vt,
                const hin::Graph& aux, hin::VertexId va) {
        return EntityAttributesMatch(target, vt, aux, va, options);
      };
  return reference;
}

// Asserts that `dehin` answers every target vertex at n = 0, 1, 2 exactly
// like the literal scan over `aux`, serially and from each pool. Returns
// how many of the reference's candidate sets were non-empty, so callers
// can tell a real comparison from a vacuous one.
size_t ExpectMatchesReference(const Dehin& dehin, const hin::Graph& aux,
                              const hin::Graph& target,
                              const std::vector<exec::Executor*>& pools) {
  const Dehin reference(&aux, ReferenceConfig(dehin.config()));
  size_t non_empty = 0;
  for (int n : {0, 1, 2}) {
    for (hin::VertexId vt = 0; vt < target.num_vertices(); ++vt) {
      const std::vector<hin::VertexId> expected =
          reference.Deanonymize(target, vt, n);
      if (!expected.empty()) ++non_empty;
      EXPECT_EQ(dehin.Deanonymize(target, vt, n), expected)
          << "serial, n=" << n << " vt=" << vt;
      for (exec::Executor* pool : pools) {
        Dehin::ParallelScanOptions scan;
        scan.executor = pool;
        auto parallel = dehin.DeanonymizeParallel(target, vt, n, scan);
        EXPECT_TRUE(parallel.ok());
        if (!parallel.ok()) continue;
        EXPECT_EQ(parallel.value(), expected)
            << pool->num_workers() << " workers, n=" << n << " vt=" << vt;
      }
      if (testing::Test::HasFailure()) return non_empty;
    }
  }
  return non_empty;
}

// --- ProfileRowReferenceTest ------------------------------------------------

enum class Semantics : uint32_t {
  kGrowthAware,
  kGrowthAwareInEdges,
  kExact,
  kExactInEdges,
  kNoGrowable,
};
enum class Storage : uint32_t { kHeap, kMapped };
enum class TargetKind : uint32_t { kPublished, kIndependent };

struct ReferenceParams {
  Semantics semantics;
  Storage storage;
  TargetKind target;
};

std::string Name(const ReferenceParams& p) {
  static constexpr const char* kSemantics[] = {
      "GrowthAware", "GrowthAwareInEdges", "Exact", "ExactInEdges",
      "NoGrowable"};
  return std::string(kSemantics[static_cast<uint32_t>(p.semantics)]) +
         (p.storage == Storage::kHeap ? "Heap" : "Mapped") +
         (p.target == TargetKind::kPublished ? "Published" : "Independent");
}

void PrintTo(const ReferenceParams& p, std::ostream* os) { *os << Name(p); }

MatchOptions OptionsFor(Semantics semantics) {
  MatchOptions options = DefaultTqqMatchOptions();
  options.growth_aware =
      semantics != Semantics::kExact && semantics != Semantics::kExactInEdges;
  options.use_in_edges = semantics == Semantics::kGrowthAwareInEdges ||
                         semantics == Semantics::kExactInEdges;
  if (semantics == Semantics::kNoGrowable) options.growable_attributes.clear();
  return options;
}

class ProfileRowReferenceTest
    : public testing::TestWithParam<ReferenceParams> {};

TEST_P(ProfileRowReferenceTest, RowsMatchLiteralScan) {
  const ReferenceParams p = GetParam();
  const MatchOptions options = OptionsFor(p.semantics);
  synth::TqqConfig config;
  config.num_users = 500;
  synth::PlantedTargetSpec spec;
  spec.target_size = 50;
  spec.density = 0.03;
  // Exact semantics need a time-synchronized crawl to match anything.
  synth::GrowthConfig growth;
  if (!options.growth_aware) {
    growth.new_user_fraction = 0.0;
    growth.new_edge_fraction = 0.0;
    growth.attr_growth_prob = 0.0;
    growth.strength_growth_prob = 0.0;
  }
  util::Rng rng(71);
  anon::KddAnonymizer anonymizer;
  auto dataset = eval::BuildExperimentDataset(config, spec, growth,
                                              anonymizer, false, &rng);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  hin::Graph aux = std::move(dataset.value().auxiliary);
  const testing_support::TempPath temp("aux.snap");
  if (p.storage == Storage::kMapped) {
    ASSERT_TRUE(hin::SaveGraphSnapshot(aux, temp.path()).ok());
    auto mapped = hin::LoadGraphSnapshot(temp.path());
    ASSERT_TRUE(mapped.ok());
    aux = std::move(mapped).value();
  }
  const hin::Graph target = p.target == TargetKind::kPublished
                                ? std::move(dataset.value().target)
                                : MakeNetwork(50, 72);

  DehinConfig indexed;
  indexed.match = options;
  DehinConfig scanned = indexed;
  scanned.use_candidate_index = false;
  const Dehin walk(&aux, indexed);
  const Dehin scan(&aux, scanned);
  exec::Executor pool2(2);
  exec::Executor pool4(4);
  const size_t walk_hits =
      ExpectMatchesReference(walk, aux, target, {&pool2, &pool4});
  const size_t scan_hits =
      ExpectMatchesReference(scan, aux, target, {&pool2, &pool4});
  EXPECT_GT(walk_hits, 0u);
  EXPECT_EQ(walk_hits, scan_hits);
}

std::vector<ReferenceParams> AllReferenceParams() {
  std::vector<ReferenceParams> params;
  for (Semantics s :
       {Semantics::kGrowthAware, Semantics::kGrowthAwareInEdges,
        Semantics::kExact, Semantics::kExactInEdges, Semantics::kNoGrowable}) {
    for (Storage storage : {Storage::kHeap, Storage::kMapped}) {
      for (TargetKind target :
           {TargetKind::kPublished, TargetKind::kIndependent}) {
        params.push_back({s, storage, target});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ProfileRowReferenceTest, testing::ValuesIn(AllReferenceParams()),
    [](const testing::TestParamInfo<ReferenceParams>& param) {
      return Name(param.param);
    });

// --- ProfileRowDeltaTest ----------------------------------------------------

std::array<hin::AttrValue, 3> ExactTuple(const hin::Graph& graph,
                                         hin::VertexId v) {
  return {graph.attribute(v, hin::kGenderAttr),
          graph.attribute(v, hin::kYobAttr),
          graph.attribute(v, hin::kTagCountAttr)};
}

std::vector<hin::VertexId> Walk(const CandidateIndex& index,
                                const ProfileRows& rows, hin::VertexId vt) {
  std::vector<hin::VertexId> out;
  index.ForEachCandidate(rows, vt,
                         [&](hin::VertexId va) { out.push_back(va); });
  return out;
}

// A delta creates a class that a cached target state already holds: the
// target vertex's tuple had no auxiliary vertex when its state was built,
// and the batch adds one. The cached state must find the new vertex.
TEST(ProfileRowDeltaTest, NewTupleReachesCachedTargetState) {
  hin::Graph aux = MakeNetwork(300, 81);
  const hin::Graph target = MakeNetwork(120, 82);
  const MatchOptions options = DefaultTqqMatchOptions();
  std::set<std::array<hin::AttrValue, 3>> aux_tuples;
  for (hin::VertexId v = 0; v < aux.num_vertices(); ++v) {
    aux_tuples.insert(ExactTuple(aux, v));
  }
  hin::VertexId orphan = hin::kInvalidVertex;
  for (hin::VertexId vt = 0; vt < target.num_vertices(); ++vt) {
    if (!aux_tuples.contains(ExactTuple(target, vt))) {
      orphan = vt;
      break;
    }
  }
  ASSERT_NE(orphan, hin::kInvalidVertex) << "every target tuple has a class";

  DehinConfig config;
  config.match = options;
  Dehin dehin(&aux, config);
  CandidateIndex incremental(aux, options);
  const ProfileRows target_rows = incremental.CompileRows(target);
  // Both cache the orphan's class before the batch.
  EXPECT_TRUE(dehin.Deanonymize(target, orphan, 0).empty());
  EXPECT_TRUE(Walk(incremental, target_rows, orphan).empty());
  ASSERT_EQ(dehin.num_cached_target_states(), 1u);

  // A sampled batch plus one new user with the orphan's profile.
  util::Rng rng(83);
  auto delta = synth::SampleGrowthDelta(aux, synth::GrowthConfig{},
                                        synth::TqqConfig{}, &rng);
  ASSERT_TRUE(delta.ok());
  hin::GraphDelta batch = std::move(delta).value();
  hin::GraphDelta::NewVertex twin;
  twin.type = target.entity_type(orphan);
  for (hin::AttributeId a = 0; a < target.num_attributes(twin.type); ++a) {
    twin.attrs.push_back(target.attribute(orphan, a));
  }
  const hin::VertexId twin_id =
      static_cast<hin::VertexId>(batch.base_num_vertices +
                                 batch.new_vertices.size());
  batch.new_vertices.push_back(twin);
  ASSERT_TRUE(hin::GraphBuilder::ApplyDelta(&aux, batch).ok());
  ASSERT_TRUE(dehin.ApplyAuxDelta(batch).ok());
  incremental.ApplyDelta(batch);

  const CandidateIndex rebuilt(aux, options);
  EXPECT_TRUE(incremental.OrderIdenticalTo(rebuilt));
  const std::vector<hin::VertexId> walked =
      Walk(incremental, target_rows, orphan);
  EXPECT_NE(std::find(walked.begin(), walked.end(), twin_id), walked.end());
  const std::vector<hin::VertexId> found = dehin.Deanonymize(target, orphan, 0);
  EXPECT_TRUE(std::binary_search(found.begin(), found.end(), twin_id));
  EXPECT_EQ(dehin.num_cached_target_states(), 1u);
  exec::Executor pool(2);
  EXPECT_GT(ExpectMatchesReference(dehin, aux, target, {&pool}), 0u);
}

// Options that list a bumped attribute (tweet count) as exact: every bump
// moves its vertex to another class.
TEST(ProfileRowDeltaTest, ExactListedBumpMovesClass) {
  MatchOptions tweets_exact = DefaultTqqMatchOptions();
  tweets_exact.exact_attributes.push_back(hin::kTweetCountAttr);
  tweets_exact.growable_attributes.clear();
  MatchOptions tags_growable = DefaultTqqMatchOptions();
  tags_growable.exact_attributes = {hin::kGenderAttr, hin::kYobAttr,
                                    hin::kTweetCountAttr};
  tags_growable.growable_attributes = {hin::kTagCountAttr};
  for (const MatchOptions& options : {tweets_exact, tags_growable}) {
    SCOPED_TRACE(options.growable_attributes.empty() ? "no growable"
                                                     : "tag count growable");
    hin::Graph aux = MakeNetwork(250, 91);
    const hin::Graph target = AnonymizedFrom(aux, 92);
    DehinConfig config;
    config.match = options;
    config.max_distance = 2;
    Dehin dehin(&aux, config);
    CandidateIndex incremental(aux, options);
    (void)incremental.CompileRows(target);
    for (hin::VertexId vt = 0; vt < target.num_vertices(); ++vt) {
      (void)dehin.Deanonymize(target, vt);  // warm the caches
    }
    exec::Executor pool(2);
    util::Rng rng(93);
    for (int b = 0; b < 3; ++b) {
      auto delta = synth::SampleGrowthDelta(aux, synth::GrowthConfig{},
                                            synth::TqqConfig{}, &rng);
      ASSERT_TRUE(delta.ok());
      ASSERT_FALSE(delta.value().attr_bumps.empty());
      ASSERT_TRUE(hin::GraphBuilder::ApplyDelta(&aux, delta.value()).ok());
      ASSERT_TRUE(dehin.ApplyAuxDelta(delta.value()).ok());
      incremental.ApplyDelta(delta.value());
      const CandidateIndex rebuilt(aux, options);
      ASSERT_TRUE(incremental.OrderIdenticalTo(rebuilt)) << "batch " << b;
      ASSERT_GT(ExpectMatchesReference(dehin, aux, target, {&pool}), 0u)
          << "batch " << b;
    }
  }
}

// A primary bump that lifts a vertex past another in its bucket moves its
// entry ahead of the other's.
TEST(ProfileRowDeltaTest, PrimaryBumpReordersBucket) {
  hin::Graph aux = MakeNetwork(400, 101);
  const hin::Graph target = AnonymizedFrom(aux, 102);
  const MatchOptions options = DefaultTqqMatchOptions();
  // Two vertices of one class, `low` with the smaller tweet count.
  hin::VertexId low = hin::kInvalidVertex;
  hin::VertexId high = hin::kInvalidVertex;
  for (hin::VertexId a = 0; a < aux.num_vertices() && low == high; ++a) {
    for (hin::VertexId b = a + 1; b < aux.num_vertices(); ++b) {
      if (ExactTuple(aux, a) != ExactTuple(aux, b)) continue;
      const hin::AttrValue ta = aux.attribute(a, hin::kTweetCountAttr);
      const hin::AttrValue tb = aux.attribute(b, hin::kTweetCountAttr);
      if (ta == tb) continue;
      low = ta < tb ? a : b;
      high = ta < tb ? b : a;
      break;
    }
  }
  ASSERT_NE(low, high) << "no class with two distinct tweet counts";

  DehinConfig config;
  config.match = options;
  config.max_distance = 2;
  Dehin dehin(&aux, config);
  CandidateIndex incremental(aux, options);
  const ProfileRows before = incremental.CompileRows(aux);
  const std::vector<hin::VertexId> walk_before =
      Walk(incremental, before, high);
  EXPECT_EQ(std::count(walk_before.begin(), walk_before.end(), low), 0);
  for (hin::VertexId vt = 0; vt < target.num_vertices(); ++vt) {
    (void)dehin.Deanonymize(target, vt);
  }

  hin::GraphDelta delta;
  delta.base_num_vertices = aux.num_vertices();
  delta.attr_bumps.push_back(
      {low, hin::kTweetCountAttr,
       aux.attribute(high, hin::kTweetCountAttr) -
           aux.attribute(low, hin::kTweetCountAttr) + 1});
  ASSERT_TRUE(hin::GraphBuilder::ApplyDelta(&aux, delta).ok());
  ASSERT_TRUE(dehin.ApplyAuxDelta(delta).ok());
  incremental.ApplyDelta(delta);
  const CandidateIndex rebuilt(aux, options);
  EXPECT_TRUE(incremental.OrderIdenticalTo(rebuilt));

  // `high`'s walk now visits `low` first: the bucket order changed.
  const ProfileRows after = incremental.CompileRows(aux);
  const std::vector<hin::VertexId> walk_after = Walk(incremental, after, high);
  const auto low_at = std::find(walk_after.begin(), walk_after.end(), low);
  const auto high_at = std::find(walk_after.begin(), walk_after.end(), high);
  ASSERT_NE(low_at, walk_after.end());
  ASSERT_NE(high_at, walk_after.end());
  EXPECT_LT(low_at, high_at);

  // Sampled batches bump many primaries at once.
  exec::Executor pool(2);
  util::Rng rng(103);
  for (int b = 0; b < 2; ++b) {
    auto sampled = synth::SampleGrowthDelta(aux, synth::GrowthConfig{},
                                            synth::TqqConfig{}, &rng);
    ASSERT_TRUE(sampled.ok());
    ASSERT_TRUE(hin::GraphBuilder::ApplyDelta(&aux, sampled.value()).ok());
    ASSERT_TRUE(dehin.ApplyAuxDelta(sampled.value()).ok());
    incremental.ApplyDelta(sampled.value());
    const CandidateIndex rebuilt_again(aux, options);
    ASSERT_TRUE(incremental.OrderIdenticalTo(rebuilt_again)) << "batch " << b;
  }
  EXPECT_GT(ExpectMatchesReference(dehin, aux, target, {&pool}), 0u);
}

// OrderIdenticalTo is the guard the cases above rely on, so it must see a
// real difference: an index over a graph one bump apart is not identical.
TEST(ProfileRowDeltaTest, OrderIdenticalToSeesAMovedEntry) {
  hin::Graph aux = MakeNetwork(200, 111);
  const MatchOptions options = DefaultTqqMatchOptions();
  const CandidateIndex before(aux, options);
  EXPECT_TRUE(before.OrderIdenticalTo(CandidateIndex(aux, options)));
  hin::GraphDelta delta;
  delta.base_num_vertices = aux.num_vertices();
  delta.attr_bumps.push_back({0, hin::kTweetCountAttr, 1000});
  ASSERT_TRUE(hin::GraphBuilder::ApplyDelta(&aux, delta).ok());
  const CandidateIndex after(aux, options);
  EXPECT_FALSE(before.OrderIdenticalTo(after));
  EXPECT_FALSE(after.OrderIdenticalTo(before));
}

}  // namespace
}  // namespace hinpriv::core
