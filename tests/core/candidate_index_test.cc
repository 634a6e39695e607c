#include "core/candidate_index.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "hin/tqq_schema.h"
#include "synth/tqq_generator.h"
#include "util/random.h"

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

std::vector<hin::VertexId> IndexCandidates(const CandidateIndex& index,
                                           const ProfileRows& target,
                                           hin::VertexId vt) {
  std::vector<hin::VertexId> out;
  index.ForEachCandidate(target, vt, [&](hin::VertexId va) {
    out.push_back(va);
  });
  std::sort(out.begin(), out.end());
  return out;
}

// The compiled predicate on every (target, auxiliary) pair.
std::vector<hin::VertexId> RowCandidates(const CandidateIndex& index,
                                         const ProfileRows& target,
                                         hin::VertexId vt, size_t aux_size) {
  std::vector<hin::VertexId> out;
  for (hin::VertexId va = 0; va < aux_size; ++va) {
    if (index.Matches(target, vt, va)) out.push_back(va);
  }
  return out;
}

std::vector<hin::VertexId> ScanCandidates(const hin::Graph& aux,
                                          const hin::Graph& target,
                                          hin::VertexId vt,
                                          const MatchOptions& options) {
  std::vector<hin::VertexId> out;
  for (hin::VertexId va = 0; va < aux.num_vertices(); ++va) {
    if (EntityAttributesMatch(target, vt, aux, va, options)) out.push_back(va);
  }
  return out;
}

// The index is a pure optimization: it must enumerate exactly the vertices
// the paper's literal "foreach v in V" profile scan accepts.
TEST(CandidateIndexTest, MatchesLinearScanExactly) {
  const hin::Graph aux = MakeNetwork(3000, 1);
  const hin::Graph target = MakeNetwork(200, 2);
  const MatchOptions options = DefaultTqqMatchOptions();
  CandidateIndex index(aux, options);
  const ProfileRows rows = index.CompileRows(target);
  for (hin::VertexId vt = 0; vt < target.num_vertices(); ++vt) {
    const auto scan = ScanCandidates(aux, target, vt, options);
    ASSERT_EQ(IndexCandidates(index, rows, vt), scan) << "target " << vt;
    ASSERT_EQ(RowCandidates(index, rows, vt, aux.num_vertices()), scan)
        << "target " << vt;
  }
}

TEST(CandidateIndexTest, MatchesScanWithoutGrowthAwareness) {
  const hin::Graph aux = MakeNetwork(2000, 3);
  const hin::Graph target = MakeNetwork(100, 4);
  MatchOptions options = DefaultTqqMatchOptions();
  options.growth_aware = false;
  CandidateIndex index(aux, options);
  const ProfileRows rows = index.CompileRows(target);
  for (hin::VertexId vt = 0; vt < target.num_vertices(); ++vt) {
    const auto scan = ScanCandidates(aux, target, vt, options);
    ASSERT_EQ(IndexCandidates(index, rows, vt), scan);
    ASSERT_EQ(RowCandidates(index, rows, vt, aux.num_vertices()), scan);
  }
}

TEST(CandidateIndexTest, MatchesScanWithNoGrowableAttributes) {
  const hin::Graph aux = MakeNetwork(1500, 5);
  const hin::Graph target = MakeNetwork(80, 6);
  MatchOptions options = DefaultTqqMatchOptions();
  options.growable_attributes.clear();
  CandidateIndex index(aux, options);
  const ProfileRows rows = index.CompileRows(target);
  for (hin::VertexId vt = 0; vt < target.num_vertices(); ++vt) {
    const auto scan = ScanCandidates(aux, target, vt, options);
    ASSERT_EQ(IndexCandidates(index, rows, vt), scan);
    ASSERT_EQ(RowCandidates(index, rows, vt, aux.num_vertices()), scan);
  }
}

TEST(CandidateIndexTest, SelfLookupFindsSelf) {
  const hin::Graph aux = MakeNetwork(1000, 7);
  const MatchOptions options = DefaultTqqMatchOptions();
  CandidateIndex index(aux, options);
  const ProfileRows rows = index.CompileRows(aux);
  for (hin::VertexId v = 0; v < 50; ++v) {
    const auto candidates = IndexCandidates(index, rows, v);
    EXPECT_TRUE(
        std::binary_search(candidates.begin(), candidates.end(), v));
  }
}

// A second growable attribute is compared row by row inside the walk.
TEST(CandidateIndexTest, MatchesScanWithTwoGrowableAttributes) {
  const hin::Graph aux = MakeNetwork(2000, 9);
  const hin::Graph target = MakeNetwork(100, 10);
  for (const bool growth_aware : {true, false}) {
    MatchOptions options = DefaultTqqMatchOptions();
    options.exact_attributes = {hin::kGenderAttr, hin::kYobAttr};
    options.growable_attributes = {hin::kTweetCountAttr, hin::kTagCountAttr};
    options.growth_aware = growth_aware;
    CandidateIndex index(aux, options);
    const ProfileRows rows = index.CompileRows(target);
    for (hin::VertexId vt = 0; vt < target.num_vertices(); ++vt) {
      const auto scan = ScanCandidates(aux, target, vt, options);
      ASSERT_EQ(IndexCandidates(index, rows, vt), scan)
          << "growth_aware=" << growth_aware << " target " << vt;
      ASSERT_EQ(RowCandidates(index, rows, vt, aux.num_vertices()), scan);
    }
  }
}

// An independently generated target has tuples no auxiliary vertex has:
// compiling it adds classes with no bucket, which match nothing and leave
// the occupied buckets alone.
TEST(CandidateIndexTest, TargetOnlyTuplesGetEmptyClasses) {
  const hin::Graph aux = MakeNetwork(300, 11);
  const hin::Graph target = MakeNetwork(300, 12);
  const MatchOptions options = DefaultTqqMatchOptions();
  CandidateIndex index(aux, options);
  const size_t aux_classes = index.num_classes();
  const size_t buckets = index.num_buckets();
  EXPECT_EQ(aux_classes, buckets);
  const ProfileRows rows = index.CompileRows(target);
  EXPECT_EQ(rows.size(), target.num_vertices());
  EXPECT_GT(index.num_classes(), aux_classes);
  EXPECT_EQ(index.num_buckets(), buckets);
  size_t unmatched = 0;
  for (hin::VertexId vt = 0; vt < target.num_vertices(); ++vt) {
    const auto candidates = IndexCandidates(index, rows, vt);
    ASSERT_EQ(candidates, ScanCandidates(aux, target, vt, options));
    if (candidates.empty()) ++unmatched;
  }
  EXPECT_GT(unmatched, 0u);
  // Compiling the same target again finds every class it created.
  const size_t classes = index.num_classes();
  (void)index.CompileRows(target);
  EXPECT_EQ(index.num_classes(), classes);
}

TEST(CandidateIndexTest, BucketCountReflectsExactAttributeCells) {
  const hin::Graph aux = MakeNetwork(5000, 8);
  CandidateIndex index(aux, DefaultTqqMatchOptions());
  // gender x yob x tags <= 3 * 87 * 11 distinct cells.
  EXPECT_LE(index.num_buckets(), 3u * 87u * 11u);
  EXPECT_GT(index.num_buckets(), 50u);
}

}  // namespace
}  // namespace hinpriv::core
