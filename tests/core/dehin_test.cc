#include "core/dehin.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "anon/kdd_anonymizer.h"
#include "hin/graph_builder.h"
#include "obs/metrics.h"
#include "hin/tqq_schema.h"
#include "synth/growth.h"
#include "synth/planted_target.h"
#include "synth/tqq_generator.h"
#include "util/random.h"

namespace hinpriv::core {
namespace {

using hin::VertexId;

// Hand-built auxiliary graph realizing the paper's Figure 6 scenario plus
// profile-distinguishable users. Users 0..3 are "v1..v4" (aux neighbors),
// user 4 is "v9" (the candidate), user 5 is a decoy with v9's profile but
// a poorer neighborhood.
struct Figure6 {
  hin::Graph aux;
  hin::Graph target;
};

Figure6 BuildFigure6() {
  // Neighbor profiles: v1 and v2 share a profile (tag 3); v3 and v4 share
  // another (tag 5).
  hin::GraphBuilder aux_builder(hin::TqqTargetSchema());
  aux_builder.AddVertices(0, 6);
  EXPECT_TRUE(aux_builder.SetAttribute(0, hin::kTagCountAttr, 3).ok());
  EXPECT_TRUE(aux_builder.SetAttribute(1, hin::kTagCountAttr, 3).ok());
  EXPECT_TRUE(aux_builder.SetAttribute(2, hin::kTagCountAttr, 5).ok());
  EXPECT_TRUE(aux_builder.SetAttribute(3, hin::kTagCountAttr, 5).ok());
  EXPECT_TRUE(aux_builder.SetAttribute(4, hin::kYobAttr, 1980).ok());
  EXPECT_TRUE(aux_builder.SetAttribute(5, hin::kYobAttr, 1980).ok());
  // v9 follows v1, v2, v3, v4.
  for (VertexId n = 0; n < 4; ++n) {
    EXPECT_TRUE(aux_builder.AddEdge(4, n, hin::kFollowLink).ok());
  }
  // The decoy follows only v1 and v2.
  EXPECT_TRUE(aux_builder.AddEdge(5, 0, hin::kFollowLink).ok());
  EXPECT_TRUE(aux_builder.AddEdge(5, 1, hin::kFollowLink).ok());
  auto aux = std::move(aux_builder).Build();
  EXPECT_TRUE(aux.ok());

  // Target graph: v8' (vertex 3) with neighbors v5', v6' (profile tag 3)
  // and v7' (tag 5) — one fewer neighbor than v9 has, since the auxiliary
  // grew in the time gap.
  hin::GraphBuilder t_builder(hin::TqqTargetSchema());
  t_builder.AddVertices(0, 4);
  EXPECT_TRUE(t_builder.SetAttribute(0, hin::kTagCountAttr, 3).ok());
  EXPECT_TRUE(t_builder.SetAttribute(1, hin::kTagCountAttr, 3).ok());
  EXPECT_TRUE(t_builder.SetAttribute(2, hin::kTagCountAttr, 5).ok());
  EXPECT_TRUE(t_builder.SetAttribute(3, hin::kYobAttr, 1980).ok());
  for (VertexId n = 0; n < 3; ++n) {
    EXPECT_TRUE(t_builder.AddEdge(3, n, hin::kFollowLink).ok());
  }
  auto target = std::move(t_builder).Build();
  EXPECT_TRUE(target.ok());
  return Figure6{std::move(aux).value(), std::move(target).value()};
}

TEST(DehinTest, Figure6BipartiteMatchingAcceptsGrownCandidate) {
  Figure6 fixture = BuildFigure6();
  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  config.max_distance = 1;
  Dehin dehin(&fixture.aux, config);
  const auto candidates = dehin.Deanonymize(fixture.target, 3);
  // v9 (vertex 4) matches: v5'~{v1,v2}, v6'~{v2 or v1}, v7'~{v3,v4} admits
  // a perfect matching. The decoy (vertex 5) cannot host v7'.
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], 4u);
}

TEST(DehinTest, ProfileOnlyDistanceZeroKeepsDecoy) {
  Figure6 fixture = BuildFigure6();
  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  Dehin dehin(&fixture.aux, config);
  const auto candidates = dehin.Deanonymize(fixture.target, 3, 0);
  // Both v9 and the profile-identical decoy survive without link matching.
  EXPECT_EQ(candidates.size(), 2u);
}

TEST(DehinTest, PigeonholeRejectsSmallerNeighborhoods) {
  // If the target has more typed neighbors than an auxiliary user, growth
  // cannot explain it and the user is rejected.
  hin::GraphBuilder aux_builder(hin::TqqTargetSchema());
  aux_builder.AddVertices(0, 3);
  EXPECT_TRUE(aux_builder.AddEdge(0, 1, hin::kMentionLink, 1).ok());
  auto aux = std::move(aux_builder).Build();
  ASSERT_TRUE(aux.ok());

  hin::GraphBuilder t_builder(hin::TqqTargetSchema());
  t_builder.AddVertices(0, 3);
  EXPECT_TRUE(t_builder.AddEdge(0, 1, hin::kMentionLink, 1).ok());
  EXPECT_TRUE(t_builder.AddEdge(0, 2, hin::kMentionLink, 1).ok());
  auto target = std::move(t_builder).Build();
  ASSERT_TRUE(target.ok());

  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  config.max_distance = 1;
  Dehin dehin(&aux.value(), config);
  const auto candidates = dehin.Deanonymize(target.value(), 0);
  EXPECT_TRUE(std::find(candidates.begin(), candidates.end(), 0u) ==
              candidates.end());
}

TEST(DehinTest, StrengthDominanceRequired) {
  // Target mentions with strength 5; an auxiliary user mentioning the same
  // profile with strength 3 cannot be the grown counterpart.
  hin::GraphBuilder aux_builder(hin::TqqTargetSchema());
  aux_builder.AddVertices(0, 4);
  EXPECT_TRUE(aux_builder.SetAttribute(0, hin::kYobAttr, 1980).ok());
  EXPECT_TRUE(aux_builder.SetAttribute(1, hin::kYobAttr, 1980).ok());
  EXPECT_TRUE(aux_builder.AddEdge(0, 2, hin::kMentionLink, 3).ok());
  EXPECT_TRUE(aux_builder.AddEdge(1, 2, hin::kMentionLink, 7).ok());
  auto aux = std::move(aux_builder).Build();
  ASSERT_TRUE(aux.ok());

  hin::GraphBuilder t_builder(hin::TqqTargetSchema());
  t_builder.AddVertices(0, 2);
  EXPECT_TRUE(t_builder.SetAttribute(0, hin::kYobAttr, 1980).ok());
  EXPECT_TRUE(t_builder.AddEdge(0, 1, hin::kMentionLink, 5).ok());
  auto target = std::move(t_builder).Build();
  ASSERT_TRUE(target.ok());

  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  config.max_distance = 1;
  Dehin dehin(&aux.value(), config);
  const auto candidates = dehin.Deanonymize(target.value(), 0);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], 1u);  // only the strength-7 user dominates
}

// --- Layer 1, the degree check ---------------------------------------------

// Target user 0 (born 1980) mentions users 1 and 2; the only auxiliary user
// with its profile mentions one user, so no perfect left matching exists.
TEST(DehinTest, DegreeCheckRejectsShortRunBeforeFullTest) {
  hin::GraphBuilder aux_builder(hin::TqqTargetSchema());
  aux_builder.AddVertices(0, 3);
  EXPECT_TRUE(aux_builder.SetAttribute(0, hin::kYobAttr, 1980).ok());
  EXPECT_TRUE(aux_builder.AddEdge(0, 1, hin::kMentionLink, 9).ok());
  auto aux = std::move(aux_builder).Build();
  ASSERT_TRUE(aux.ok());

  hin::GraphBuilder t_builder(hin::TqqTargetSchema());
  t_builder.AddVertices(0, 3);
  EXPECT_TRUE(t_builder.SetAttribute(0, hin::kYobAttr, 1980).ok());
  EXPECT_TRUE(t_builder.AddEdge(0, 1, hin::kMentionLink, 1).ok());
  EXPECT_TRUE(t_builder.AddEdge(0, 2, hin::kMentionLink, 1).ok());
  auto target = std::move(t_builder).Build();
  ASSERT_TRUE(target.ok());

  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  Dehin dehin(&aux.value(), config);
  EXPECT_TRUE(dehin.Deanonymize(target.value(), 0, 1).empty());
  const DehinStats stats = dehin.stats();
  EXPECT_EQ(stats.prefilter_rejects, 1u);
  EXPECT_EQ(stats.full_tests, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

// A degree reject inside the recursion is never cached: asking the same
// question again rejects again instead of hitting the match cache. Target
// 0 -> 1 matches auxiliary 0 -> 1 at the root, but target 1 mentions two
// users and auxiliary 1 only one.
TEST(DehinTest, DegreeCheckRejectsAreNeverCached) {
  hin::GraphBuilder aux_builder(hin::TqqTargetSchema());
  aux_builder.AddVertices(0, 3);
  EXPECT_TRUE(aux_builder.SetAttribute(0, hin::kYobAttr, 1980).ok());
  EXPECT_TRUE(aux_builder.SetAttribute(1, hin::kYobAttr, 1970).ok());
  EXPECT_TRUE(aux_builder.AddEdge(0, 1, hin::kMentionLink, 1).ok());
  EXPECT_TRUE(aux_builder.AddEdge(1, 2, hin::kMentionLink, 1).ok());
  auto aux = std::move(aux_builder).Build();
  ASSERT_TRUE(aux.ok());

  hin::GraphBuilder t_builder(hin::TqqTargetSchema());
  t_builder.AddVertices(0, 4);
  EXPECT_TRUE(t_builder.SetAttribute(0, hin::kYobAttr, 1980).ok());
  EXPECT_TRUE(t_builder.SetAttribute(1, hin::kYobAttr, 1970).ok());
  EXPECT_TRUE(t_builder.AddEdge(0, 1, hin::kMentionLink, 1).ok());
  EXPECT_TRUE(t_builder.AddEdge(1, 2, hin::kMentionLink, 1).ok());
  EXPECT_TRUE(t_builder.AddEdge(1, 3, hin::kMentionLink, 1).ok());
  auto target = std::move(t_builder).Build();
  ASSERT_TRUE(target.ok());

  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  Dehin dehin(&aux.value(), config);
  for (uint64_t round = 1; round <= 2; ++round) {
    EXPECT_TRUE(dehin.Deanonymize(target.value(), 0, 2).empty());
    const DehinStats stats = dehin.stats();
    EXPECT_EQ(stats.prefilter_rejects, round) << "round " << round;
    EXPECT_EQ(stats.full_tests, round) << "round " << round;
    EXPECT_EQ(stats.cache_hits, 0u) << "round " << round;
  }
}

// The degree check skips the target runs the full test skips: an empty run
// constrains nothing, and a saturated one (Section 6.2) is ignored even
// though the auxiliary run is shorter.
TEST(DehinTest, DegreeCheckSkipsEmptyAndSaturatedRuns) {
  hin::GraphBuilder t_builder(hin::TqqTargetSchema());
  t_builder.AddVertices(0, 10);
  EXPECT_TRUE(t_builder.SetAttribute(0, hin::kYobAttr, 1980).ok());
  for (VertexId b = 1; b < 10; ++b) {
    EXPECT_TRUE(t_builder.AddEdge(0, b, hin::kFollowLink).ok());
  }
  auto target = std::move(t_builder).Build();
  ASSERT_TRUE(target.ok());

  hin::GraphBuilder aux_builder(hin::TqqTargetSchema());
  aux_builder.AddVertices(0, 3);
  EXPECT_TRUE(aux_builder.SetAttribute(0, hin::kYobAttr, 1980).ok());
  EXPECT_TRUE(aux_builder.AddEdge(0, 1, hin::kFollowLink).ok());
  auto aux = std::move(aux_builder).Build();
  ASSERT_TRUE(aux.ok());

  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  config.saturation_fraction = 0.5;  // 9 followees of 9 others: saturated
  Dehin reconfigured(&aux.value(), config);
  EXPECT_EQ(reconfigured.Deanonymize(target.value(), 0, 1),
            std::vector<VertexId>{0});
  EXPECT_EQ(reconfigured.stats().prefilter_rejects, 0u);
  EXPECT_EQ(reconfigured.stats().full_tests, 1u);

  config.saturation_fraction = 1.0;
  Dehin strict(&aux.value(), config);
  EXPECT_TRUE(strict.Deanonymize(target.value(), 0, 1).empty());
  EXPECT_EQ(strict.stats().prefilter_rejects, 1u);
  EXPECT_EQ(strict.stats().full_tests, 0u);
}

// --- Strength multisets of one link run ------------------------------------
//
// These cases first pinned the strength-dominance prefilter, which compared
// sorted strength runs before any matching was built. The facts they state
// belong to Algorithm 2's per-link-type acceptance, so they now run end to
// end through LinkMatch under the suite name they always had.

// Root user 0 (born 1980) mentions one attribute-less user per strength.
hin::Graph MentionRun(const std::vector<hin::Strength>& strengths) {
  hin::GraphBuilder builder(hin::TqqTargetSchema());
  builder.AddVertices(0, 1 + strengths.size());
  EXPECT_TRUE(builder.SetAttribute(0, hin::kYobAttr, 1980).ok());
  for (size_t i = 0; i < strengths.size(); ++i) {
    EXPECT_TRUE(builder
                    .AddEdge(0, static_cast<VertexId>(1 + i),
                             hin::kMentionLink, strengths[i])
                    .ok());
  }
  auto graph = std::move(builder).Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

// Whether the attack at distance 1 accepts the auxiliary root of
// MentionRun(aux) as the counterpart of the target root of
// MentionRun(target). Only the roots share a profile and every neighbor
// matches every other, so only the strengths and the matching decide.
bool MentionRunMatches(const std::vector<hin::Strength>& target,
                       const std::vector<hin::Strength>& aux,
                       bool growth_aware) {
  const hin::Graph target_graph = MentionRun(target);
  const hin::Graph aux_graph = MentionRun(aux);
  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  config.match.growth_aware = growth_aware;
  Dehin dehin(&aux_graph, config);
  const auto candidates = dehin.Deanonymize(target_graph, 0, 1);
  EXPECT_TRUE(candidates.empty() || candidates == std::vector<VertexId>{0});
  return !candidates.empty();
}

TEST(NeighborhoodStatsTest, GrowthAwareDominance) {
  const std::vector<hin::Strength> target = {2, 5, 9};
  // Some 3 of the auxiliary strengths must dominate {2, 5, 9} element-wise.
  const std::vector<hin::Strength> enough = {1, 3, 6, 9};   // {3, 6, 9}
  const std::vector<hin::Strength> too_low = {1, 3, 4, 9};  // 4 < 5
  EXPECT_TRUE(MentionRunMatches(target, enough, true));
  EXPECT_FALSE(MentionRunMatches(target, too_low, true));
  // Pigeonhole: fewer auxiliary strengths than target strengths.
  const std::vector<hin::Strength> short_aux = {9, 9};
  EXPECT_FALSE(MentionRunMatches(target, short_aux, true));
  // An empty target run always passes.
  EXPECT_TRUE(MentionRunMatches({}, short_aux, true));
  EXPECT_TRUE(MentionRunMatches({}, {}, true));
}

TEST(NeighborhoodStatsTest, ExactSemanticsRequireContainment) {
  const std::vector<hin::Strength> target = {2, 5, 5};
  const std::vector<hin::Strength> contains = {2, 3, 5, 5, 7};
  const std::vector<hin::Strength> one_five = {2, 3, 5, 7, 8};
  const std::vector<hin::Strength> dominates_only = {3, 6, 6, 9};
  EXPECT_TRUE(MentionRunMatches(target, contains, false));
  EXPECT_FALSE(MentionRunMatches(target, one_five, false));
  EXPECT_FALSE(MentionRunMatches(target, dominates_only, false));
}

// A run is accepted exactly when some injective assignment of target
// strengths to auxiliary strengths satisfies the strength predicate:
// cross-check against every assignment order on small multisets, under both
// semantics.
TEST(NeighborhoodStatsTest, DominanceMatchesBruteForceMatching) {
  auto brute_force = [](const std::vector<hin::Strength>& t,
                        const std::vector<hin::Strength>& a,
                        bool growth_aware) {
    if (t.size() > a.size()) return false;
    std::vector<size_t> perm(a.size());
    for (size_t i = 0; i < a.size(); ++i) perm[i] = i;
    do {
      bool ok = true;
      for (size_t i = 0; i < t.size(); ++i) {
        if (!LinkStrengthMatch(t[i], a[perm[i]], growth_aware)) {
          ok = false;
          break;
        }
      }
      if (ok) return true;
    } while (std::next_permutation(perm.begin(), perm.end()));
    return false;
  };
  const std::vector<std::vector<hin::Strength>> cases = {
      {}, {1}, {3}, {1, 1}, {2, 4}, {4, 4}, {1, 3, 5}, {5, 5, 5}};
  for (const bool growth_aware : {true, false}) {
    for (const auto& t : cases) {
      for (const auto& a : cases) {
        EXPECT_EQ(MentionRunMatches(t, a, growth_aware),
                  brute_force(t, a, growth_aware))
            << "t.size=" << t.size() << " a.size=" << a.size()
            << " growth_aware=" << growth_aware;
      }
    }
  }
}

TEST(DehinTest, CustomEntityMatchOverride) {
  Figure6 fixture = BuildFigure6();
  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  config.max_distance = 0;
  // An adversary-configured matcher that only accepts yob equality.
  config.entity_match_override = [](const hin::Graph& target, VertexId vt,
                                    const hin::Graph& aux, VertexId va) {
    return target.attribute(vt, hin::kYobAttr) ==
           aux.attribute(va, hin::kYobAttr);
  };
  Dehin dehin(&fixture.aux, config);
  const auto candidates = dehin.Deanonymize(fixture.target, 3);
  EXPECT_EQ(candidates.size(), 2u);  // both 1980 users
}

TEST(DehinTest, CustomLinkMatchOverride) {
  Figure6 fixture = BuildFigure6();
  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  config.max_distance = 1;
  // Reject every link: the target's non-empty neighborhood can never be
  // matched, so no candidates survive distance 1.
  config.link_match_override = [](hin::Strength, hin::Strength) {
    return false;
  };
  Dehin dehin(&fixture.aux, config);
  EXPECT_TRUE(dehin.Deanonymize(fixture.target, 3).empty());
}

// --- Property tests on synthetic datasets --------------------------------

struct SoundnessParams {
  uint64_t seed;
  double density;
  int max_distance;
};

class DehinSoundnessTest : public testing::TestWithParam<SoundnessParams> {};

// Soundness: under growth-consistent anonymization (id permutation only),
// the true counterpart is ALWAYS in the candidate set, at every distance.
TEST_P(DehinSoundnessTest, TruthAlwaysAmongCandidates) {
  const SoundnessParams p = GetParam();
  synth::TqqConfig config;
  config.num_users = 4000;
  synth::PlantedTargetSpec spec;
  spec.target_size = 150;
  spec.density = p.density;
  util::Rng rng(p.seed);
  auto dataset =
      synth::BuildPlantedDataset(config, spec, synth::GrowthConfig{}, &rng);
  ASSERT_TRUE(dataset.ok());

  DehinConfig attack;
  attack.match = DefaultTqqMatchOptions();
  Dehin dehin(&dataset.value().auxiliary, attack);
  for (VertexId vt = 0; vt < dataset.value().target.num_vertices(); ++vt) {
    const auto candidates =
        dehin.Deanonymize(dataset.value().target, vt, p.max_distance);
    ASSERT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                   dataset.value().target_to_aux[vt]))
        << "target " << vt << " lost its true counterpart";
  }
}

INSTANTIATE_TEST_SUITE_P(
    GrowthAndDensity, DehinSoundnessTest,
    testing::Values(SoundnessParams{1, 0.002, 1}, SoundnessParams{2, 0.01, 1},
                    SoundnessParams{3, 0.01, 2}, SoundnessParams{4, 0.02, 3},
                    SoundnessParams{5, 0.005, 2}));

// Candidate sets shrink (weakly) as the max distance grows.
TEST(DehinTest, CandidateSetsMonotoneInDistance) {
  synth::TqqConfig config;
  config.num_users = 3000;
  synth::PlantedTargetSpec spec;
  spec.target_size = 120;
  spec.density = 0.01;
  util::Rng rng(11);
  auto dataset =
      synth::BuildPlantedDataset(config, spec, synth::GrowthConfig{}, &rng);
  ASSERT_TRUE(dataset.ok());
  DehinConfig attack;
  attack.match = DefaultTqqMatchOptions();
  Dehin dehin(&dataset.value().auxiliary, attack);
  for (VertexId vt = 0; vt < 40; ++vt) {
    size_t prev = SIZE_MAX;
    for (int n = 0; n <= 3; ++n) {
      const auto candidates = dehin.Deanonymize(dataset.value().target, vt, n);
      ASSERT_LE(candidates.size(), prev);
      prev = candidates.size();
    }
  }
}

// The index-accelerated attack visits exactly the same candidates as the
// paper's literal linear scan.
TEST(DehinTest, IndexAndScanAgree) {
  synth::TqqConfig config;
  config.num_users = 2000;
  synth::PlantedTargetSpec spec;
  spec.target_size = 100;
  spec.density = 0.01;
  util::Rng rng(13);
  auto dataset =
      synth::BuildPlantedDataset(config, spec, synth::GrowthConfig{}, &rng);
  ASSERT_TRUE(dataset.ok());

  DehinConfig with_index;
  with_index.match = DefaultTqqMatchOptions();
  with_index.use_candidate_index = true;
  DehinConfig without_index = with_index;
  without_index.use_candidate_index = false;
  Dehin fast(&dataset.value().auxiliary, with_index);
  Dehin slow(&dataset.value().auxiliary, without_index);
  for (VertexId vt = 0; vt < dataset.value().target.num_vertices(); ++vt) {
    ASSERT_EQ(fast.Deanonymize(dataset.value().target, vt, 1),
              slow.Deanonymize(dataset.value().target, vt, 1));
  }
}

// Exact self-matching: attacking the auxiliary network with itself in
// time-synchronized mode must return a candidate set containing exactly
// the vertex itself for structurally unique vertices, and always at least
// the vertex itself.
TEST(DehinTest, SelfAttackFindsSelf) {
  synth::TqqConfig config;
  config.num_users = 1500;
  util::Rng rng(17);
  auto graph = synth::GenerateTqqNetwork(config, &rng);
  ASSERT_TRUE(graph.ok());
  DehinConfig attack;
  attack.match = DefaultTqqMatchOptions();
  attack.match.growth_aware = false;
  Dehin dehin(&graph.value(), attack);
  for (VertexId v = 0; v < 60; ++v) {
    const auto candidates = dehin.Deanonymize(graph.value(), v, 2);
    ASSERT_TRUE(
        std::binary_search(candidates.begin(), candidates.end(), v));
  }
}

// --- StripMajorityStrengthLinks -------------------------------------------

TEST(StripMajorityTest, RemovesMajorityValuePerLinkType) {
  hin::GraphBuilder builder(hin::TqqTargetSchema());
  builder.AddVertices(0, 5);
  // Mention strengths: {1, 1, 1, 4}: majority 1 removed, 4 kept.
  ASSERT_TRUE(builder.AddEdge(0, 1, hin::kMentionLink, 1).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, hin::kMentionLink, 1).ok());
  ASSERT_TRUE(builder.AddEdge(2, 3, hin::kMentionLink, 1).ok());
  ASSERT_TRUE(builder.AddEdge(3, 4, hin::kMentionLink, 4).ok());
  // Retweet strengths: {2, 2, 7}: majority 2 removed.
  ASSERT_TRUE(builder.AddEdge(0, 2, hin::kRetweetLink, 2).ok());
  ASSERT_TRUE(builder.AddEdge(1, 3, hin::kRetweetLink, 2).ok());
  ASSERT_TRUE(builder.AddEdge(2, 4, hin::kRetweetLink, 7).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());

  auto stripped = StripMajorityStrengthLinks(graph.value());
  ASSERT_TRUE(stripped.ok());
  EXPECT_EQ(stripped.value().num_edges(), 2u);
  EXPECT_EQ(stripped.value().EdgeStrength(hin::kMentionLink, 3, 4), 4u);
  EXPECT_EQ(stripped.value().EdgeStrength(hin::kRetweetLink, 2, 4), 7u);
}

TEST(StripMajorityTest, TieBreaksTowardSmallerStrength) {
  hin::GraphBuilder builder(hin::TqqTargetSchema());
  builder.AddVertices(0, 3);
  ASSERT_TRUE(builder.AddEdge(0, 1, hin::kMentionLink, 1).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, hin::kMentionLink, 9).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  auto stripped = StripMajorityStrengthLinks(graph.value());
  ASSERT_TRUE(stripped.ok());
  // 1 and 9 tie with count 1; the smaller strength (1) is stripped.
  EXPECT_EQ(stripped.value().num_edges(), 1u);
  EXPECT_EQ(stripped.value().EdgeStrength(hin::kMentionLink, 1, 2), 9u);
}

TEST(StripMajorityTest, EmptyLinkTypesAreNoOp) {
  hin::GraphBuilder builder(hin::TqqTargetSchema());
  builder.AddVertices(0, 3);
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  auto stripped = StripMajorityStrengthLinks(graph.value());
  ASSERT_TRUE(stripped.ok());
  EXPECT_EQ(stripped.value().num_edges(), 0u);
  EXPECT_EQ(stripped.value().num_vertices(), 3u);
}

TEST(StripMajorityTest, PreservesAttributes) {
  hin::GraphBuilder builder(hin::TqqTargetSchema());
  builder.AddVertices(0, 2);
  ASSERT_TRUE(builder.SetAttribute(0, hin::kYobAttr, 1980).ok());
  ASSERT_TRUE(builder.AddEdge(0, 1, hin::kFollowLink).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  auto stripped = StripMajorityStrengthLinks(graph.value());
  ASSERT_TRUE(stripped.ok());
  EXPECT_EQ(stripped.value().attribute(0, hin::kYobAttr), 1980);
}

// Saturated (near-complete) neighborhoods carry no signal and are skipped,
// pinning the attack at its distance-0 result (the VW-CGA behavior of
// Figure 8).
TEST(DehinTest, SaturatedNeighborhoodsFallBackToProfileMatching) {
  // Target: every user follows every other (complete follow graph).
  hin::GraphBuilder t_builder(hin::TqqTargetSchema());
  t_builder.AddVertices(0, 10);
  for (VertexId a = 0; a < 10; ++a) {
    for (VertexId b = 0; b < 10; ++b) {
      if (a != b) {
        ASSERT_TRUE(t_builder.AddEdge(a, b, hin::kFollowLink).ok());
      }
    }
  }
  auto target = std::move(t_builder).Build();
  ASSERT_TRUE(target.ok());

  // Auxiliary: sparse.
  hin::GraphBuilder a_builder(hin::TqqTargetSchema());
  a_builder.AddVertices(0, 10);
  ASSERT_TRUE(a_builder.AddEdge(0, 1, hin::kFollowLink).ok());
  auto aux = std::move(a_builder).Build();
  ASSERT_TRUE(aux.ok());

  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  config.max_distance = 1;
  config.saturation_fraction = 0.5;  // the reconfigured attack
  Dehin dehin(&aux.value(), config);
  // All profiles are identical: distance-0 would return all 10. With the
  // saturated follow neighborhood skipped, distance-1 returns the same.
  const auto candidates = dehin.Deanonymize(target.value(), 0, 1);
  EXPECT_EQ(candidates.size(), 10u);

  // Without the reconfiguration, the impossible neighborhood (9 followees
  // vs. at most 1 in the auxiliary) eliminates everyone.
  DehinConfig unreconfigured = config;
  unreconfigured.saturation_fraction = 1.0;
  Dehin strict(&aux.value(), unreconfigured);
  EXPECT_TRUE(strict.Deanonymize(target.value(), 0, 1).empty());
}

// stats() deltas are computed with DehinStats::operator-; a "later" snapshot
// taken after ResetStats() used to wrap around to huge values.
TEST(DehinStatsTest, SubtractionClampsAtZero) {
  DehinStats before;
  before.prefilter_rejects = 100;
  before.cache_hits = 50;
  before.full_tests = 10;
  DehinStats after;  // all zero, as after a ResetStats()
  after.full_tests = 25;
  const DehinStats delta = after - before;
  EXPECT_EQ(delta.prefilter_rejects, 0u);
  EXPECT_EQ(delta.cache_hits, 0u);
  EXPECT_EQ(delta.full_tests, 15u);
}

// Differential check for the telemetry layer: the per-instance DehinStats and
// the process-wide metrics registry are fed from the same batched flush, so
// over a run their deltas must agree exactly.
TEST(DehinTest, StatsMatchGlobalRegistryDeltas) {
  Figure6 fixture = BuildFigure6();
  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  Dehin dehin(&fixture.aux, config);

  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  for (VertexId v = 0; v < fixture.target.num_vertices(); ++v) {
    for (int n = 0; n <= 2; ++n) {
      (void)dehin.Deanonymize(fixture.target, v, n);
    }
  }
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();

  const DehinStats stats = dehin.stats();
  EXPECT_EQ(after.CounterValue("dehin/prefilter_rejects") -
                before.CounterValue("dehin/prefilter_rejects"),
            stats.prefilter_rejects);
  EXPECT_EQ(after.CounterValue("dehin/cache_hits") -
                before.CounterValue("dehin/cache_hits"),
            stats.cache_hits);
  EXPECT_EQ(after.CounterValue("dehin/full_tests") -
                before.CounterValue("dehin/full_tests"),
            stats.full_tests);
  // The attack exercised the matcher, so something was counted and the
  // candidate-set histograms saw every Deanonymize call.
  EXPECT_GT(stats.full_tests + stats.prefilter_rejects + stats.cache_hits, 0u);
}

// Regression for the target-state use-after-free: concurrent Deanonymize
// calls race InvalidateTarget on the same (immutable) graph. The old code
// handed out a raw pointer into the cache, so an invalidation freed the
// target state another thread was reading; shared_ptr pinning must keep
// every in-flight state alive. Run under ASan to make any regression
// loud.
TEST(DehinTest, ConcurrentInvalidationDoesNotInvalidateInFlightReads) {
  Figure6 fixture = BuildFigure6();
  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  Dehin dehin(&fixture.aux, config);
  const auto expected = dehin.Deanonymize(fixture.target, 3, 2);

  std::atomic<bool> stop{false};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (dehin.Deanonymize(fixture.target, 3, 2) != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 400; ++i) {
    dehin.InvalidateTarget(fixture.target);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : readers) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  // The cache never holds more than one entry for the one live graph.
  EXPECT_LE(dehin.num_cached_target_states(), 1u);
}

// Retiring a target graph and building a new one at the same address must
// not resurrect stale cached state: InvalidateTarget drops the entry, and
// a rebuilt graph gets a fresh fingerprint-consistent analysis.
TEST(DehinTest, InvalidateTargetDropsCachedState) {
  Figure6 fixture = BuildFigure6();
  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  Dehin dehin(&fixture.aux, config);
  EXPECT_EQ(dehin.num_cached_target_states(), 0u);
  (void)dehin.Deanonymize(fixture.target, 3, 1);
  EXPECT_EQ(dehin.num_cached_target_states(), 1u);
  dehin.InvalidateTarget(fixture.target);
  EXPECT_EQ(dehin.num_cached_target_states(), 0u);
  // Invalidating an unknown graph is a no-op, not an error.
  dehin.InvalidateTarget(fixture.aux);
  EXPECT_EQ(dehin.num_cached_target_states(), 0u);
  // Re-analysis after invalidation still yields the Figure 6 answer.
  const auto candidates = dehin.Deanonymize(fixture.target, 3, 1);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], 4u);
  EXPECT_EQ(dehin.num_cached_target_states(), 1u);
}

}  // namespace
}  // namespace hinpriv::core
