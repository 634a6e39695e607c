// Property tests over DeHIN's soundness guarantee: for growth-consistent
// publication pipelines (no real-edge deletion), the true counterpart must
// remain in every candidate set — across anonymizers, reconfiguration,
// homogenization and bucketing, at every distance.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>

#include <gtest/gtest.h>

#include "anon/complete_graph_anonymizer.h"
#include "anon/k_degree_anonymizer.h"
#include "anon/kdd_anonymizer.h"
#include "anon/utility_tradeoff_anonymizers.h"
#include "core/dehin.h"
#include "eval/experiment.h"
#include "hin/homogenize.h"
#include "matching/hopcroft_karp.h"
#include "util/random.h"

namespace hinpriv::core {
namespace {

enum class Defense { kKdda, kCga, kVwCga, kKDegree, kBucketing };

// gtest names each case after the raw bytes of its parameter, so the struct
// must have no padding: uninitialised padding bytes made the discovered ctest
// names change from one build to the next.
struct PropertyParams {
  Defense defense;
  uint32_t reconfigured;  // nonzero: strip + saturation fallback
  uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<PropertyParams>,
              "PropertyParams must not contain padding bytes");

std::unique_ptr<anon::Anonymizer> MakeAnonymizer(Defense defense) {
  switch (defense) {
    case Defense::kKdda:
      return std::make_unique<anon::KddAnonymizer>();
    case Defense::kCga:
      return std::make_unique<anon::CompleteGraphAnonymizer>();
    case Defense::kVwCga:
      return std::make_unique<anon::VaryingWeightCgaAnonymizer>();
    case Defense::kKDegree:
      return std::make_unique<anon::KDegreeAnonymizer>(10);
    case Defense::kBucketing:
      return std::make_unique<anon::StrengthBucketingAnonymizer>(7);
  }
  return nullptr;
}

class DehinDefenseSoundnessTest
    : public testing::TestWithParam<PropertyParams> {};

TEST_P(DehinDefenseSoundnessTest, TruthSurvivesEveryPipeline) {
  const PropertyParams p = GetParam();
  synth::TqqConfig config;
  config.num_users = 3000;
  synth::PlantedTargetSpec spec;
  spec.target_size = 120;
  spec.density = 0.015;
  util::Rng rng(p.seed);
  auto anonymizer = MakeAnonymizer(p.defense);
  auto dataset = eval::BuildExperimentDataset(
      config, spec, synth::GrowthConfig{}, *anonymizer, p.reconfigured, &rng);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  DehinConfig attack;
  attack.match = DefaultTqqMatchOptions();
  if (p.reconfigured) attack.saturation_fraction = 0.5;
  Dehin dehin(&dataset.value().auxiliary, attack);
  for (hin::VertexId vt = 0; vt < dataset.value().target.num_vertices();
       ++vt) {
    for (int n : {0, 1, 2}) {
      const auto candidates =
          dehin.Deanonymize(dataset.value().target, vt, n);
      ASSERT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                     dataset.value().ground_truth[vt]))
          << "defense=" << static_cast<int>(p.defense) << " vt=" << vt
          << " n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pipelines, DehinDefenseSoundnessTest,
    testing::Values(
        PropertyParams{Defense::kKdda, false, 1},
        PropertyParams{Defense::kKdda, true, 2},  // blanket reconfiguration
        PropertyParams{Defense::kCga, true, 3},
        PropertyParams{Defense::kVwCga, true, 4},
        PropertyParams{Defense::kKDegree, true, 5},
        PropertyParams{Defense::kBucketing, false, 6}));

// Homogenized pipeline: collapsing link types on BOTH sides preserves
// soundness (merged target strengths are dominated by merged auxiliary
// strengths under growth).
TEST(DehinHomogeneousSoundnessTest, TruthSurvivesHomogenization) {
  synth::TqqConfig config;
  config.num_users = 3000;
  synth::PlantedTargetSpec spec;
  spec.target_size = 120;
  spec.density = 0.015;
  util::Rng rng(7);
  anon::KddAnonymizer anonymizer;
  auto dataset = eval::BuildExperimentDataset(
      config, spec, synth::GrowthConfig{}, anonymizer, false, &rng);
  ASSERT_TRUE(dataset.ok());
  auto homo_target = hin::HomogenizeGraph(dataset.value().target);
  auto homo_aux = hin::HomogenizeGraph(dataset.value().auxiliary);
  ASSERT_TRUE(homo_target.ok());
  ASSERT_TRUE(homo_aux.ok());

  DehinConfig attack;
  attack.match = DefaultTqqMatchOptions();
  attack.match.link_types = {0};
  Dehin dehin(&homo_aux.value(), attack);
  for (hin::VertexId vt = 0; vt < homo_target.value().num_vertices(); ++vt) {
    const auto candidates = dehin.Deanonymize(homo_target.value(), vt, 2);
    ASSERT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                   dataset.value().ground_truth[vt]));
  }
}

// Dropping link types from the published target only removes constraints:
// candidate sets grow (weakly) relative to the full publication, and the
// truth stays inside.
TEST(DehinLinkDropMonotonicityTest, DroppingTypesWeakensButStaysSound) {
  synth::TqqConfig config;
  config.num_users = 3000;
  synth::PlantedTargetSpec spec;
  spec.target_size = 100;
  spec.density = 0.015;
  util::Rng rng(8);
  auto planted =
      synth::BuildPlantedDataset(config, spec, synth::GrowthConfig{}, &rng);
  ASSERT_TRUE(planted.ok());

  // Publish twice with the same permutation stream: full vs follow-only.
  util::Rng full_rng(11);
  util::Rng drop_rng(11);
  anon::KddAnonymizer full_publisher;
  anon::LinkTypeDroppingAnonymizer drop_publisher({hin::kFollowLink});
  auto full = full_publisher.Anonymize(planted.value().target, &full_rng);
  auto dropped = drop_publisher.Anonymize(planted.value().target, &drop_rng);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(dropped.ok());
  ASSERT_EQ(full.value().to_original, dropped.value().to_original);

  DehinConfig attack;
  attack.match = DefaultTqqMatchOptions();
  Dehin dehin(&planted.value().auxiliary, attack);
  for (hin::VertexId vt = 0; vt < 100; ++vt) {
    const auto with_all = dehin.Deanonymize(full.value().graph, vt, 1);
    const auto with_drop = dehin.Deanonymize(dropped.value().graph, vt, 1);
    ASSERT_GE(with_drop.size(), with_all.size());
    const hin::VertexId truth =
        planted.value().target_to_aux[full.value().to_original[vt]];
    ASSERT_TRUE(
        std::binary_search(with_drop.begin(), with_drop.end(), truth));
  }
}

// Candidate sets are monotone in the enabled link-type set: enabling more
// heterogeneity can only eliminate candidates (Table 3's mechanism).
TEST(DehinLinkTypeMonotonicityTest, MoreLinkTypesNeverGrowCandidateSets) {
  synth::TqqConfig config;
  config.num_users = 3000;
  synth::PlantedTargetSpec spec;
  spec.target_size = 100;
  spec.density = 0.015;
  util::Rng rng(9);
  anon::KddAnonymizer anonymizer;
  auto dataset = eval::BuildExperimentDataset(
      config, spec, synth::GrowthConfig{}, anonymizer, false, &rng);
  ASSERT_TRUE(dataset.ok());

  DehinConfig follow_only;
  follow_only.match = DefaultTqqMatchOptions();
  follow_only.match.link_types = {hin::kFollowLink};
  DehinConfig all;
  all.match = DefaultTqqMatchOptions();
  Dehin weak(&dataset.value().auxiliary, follow_only);
  Dehin strong(&dataset.value().auxiliary, all);
  for (hin::VertexId vt = 0; vt < 100; ++vt) {
    const auto weak_candidates =
        weak.Deanonymize(dataset.value().target, vt, 1);
    const auto strong_candidates =
        strong.Deanonymize(dataset.value().target, vt, 1);
    ASSERT_LE(strong_candidates.size(), weak_candidates.size());
    // And the strong set is a subset of the weak set.
    ASSERT_TRUE(std::includes(weak_candidates.begin(), weak_candidates.end(),
                              strong_candidates.begin(),
                              strong_candidates.end()));
  }
}

// ---------------------------------------------------------------------------
// Differential tests for Dehin's layers — the candidate index, the Layer-1
// degree check and the Layer-2 match cache — against a literal Algorithm 2
// that has none of them: bit-identical candidate sets for every target
// vertex, on every pipeline, at n = 0..2.

// Algorithms 1 and 2 as the paper writes them, recursing on the neighbor
// pair (DESIGN.md §5): every auxiliary vertex passing
// entity_attribute_match is a candidate, and LinkMatch builds, for each
// utilized link type and direction, the bipartite graph of the candidate
// sets C(b') and asks for a perfect left matching. Nothing is memoized and
// nothing is decided early; the one skip is the saturation skip of Section
// 6.2, which is part of the attack. Exponential in n, so n stays small.
class LiteralDehin {
 public:
  LiteralDehin(const hin::Graph& target, const hin::Graph& aux,
               const DehinConfig& config)
      : target_(target),
        aux_(aux),
        config_(config),
        saturation_limit_(static_cast<size_t>(
            config.saturation_fraction *
            static_cast<double>(target.num_vertices() - 1))) {}

  std::vector<hin::VertexId> Deanonymize(hin::VertexId vt, int n) const {
    std::vector<hin::VertexId> candidates;
    for (hin::VertexId va = 0; va < aux_.num_vertices(); ++va) {
      if (EntityAttributesMatch(target_, vt, aux_, va, config_.match) &&
          (n == 0 || LinkMatch(n, vt, va))) {
        candidates.push_back(va);
      }
    }
    return candidates;
  }

 private:
  bool LinkMatch(int n, hin::VertexId vt, hin::VertexId va) const {
    for (const hin::LinkTypeId lt : config_.match.link_types) {
      for (const bool incoming : {false, true}) {
        if (incoming && !config_.match.use_in_edges) continue;
        const auto t_neighbors =
            incoming ? target_.InEdges(lt, vt) : target_.OutEdges(lt, vt);
        const auto a_neighbors =
            incoming ? aux_.InEdges(lt, va) : aux_.OutEdges(lt, va);
        if (t_neighbors.empty() || t_neighbors.size() > saturation_limit_) {
          continue;
        }
        matching::BipartiteGraph bipartite(t_neighbors.size(),
                                           a_neighbors.size());
        for (uint32_t i = 0; i < t_neighbors.size(); ++i) {
          for (uint32_t j = 0; j < a_neighbors.size(); ++j) {
            const hin::Edge& tb = t_neighbors[i];
            const hin::Edge& ab = a_neighbors[j];
            if (StrengthMatch(tb.strength, ab.strength) &&
                EntityAttributesMatch(target_, tb.neighbor, aux_,
                                      ab.neighbor, config_.match) &&
                (n == 1 || LinkMatch(n - 1, tb.neighbor, ab.neighbor))) {
              bipartite.AddEdge(i, j);
            }
          }
        }
        if (!matching::HasPerfectLeftMatching(bipartite)) return false;
      }
    }
    return true;
  }

  bool StrengthMatch(hin::Strength t, hin::Strength a) const {
    return config_.link_match_override
               ? config_.link_match_override(t, a)
               : LinkStrengthMatch(t, a, config_.match.growth_aware);
  }

  const hin::Graph& target_;
  const hin::Graph& aux_;
  const DehinConfig& config_;
  size_t saturation_limit_;
};

std::vector<std::vector<hin::VertexId>> AllCandidates(const Dehin& dehin,
                                                      const hin::Graph& target,
                                                      int max_distance) {
  std::vector<std::vector<hin::VertexId>> result;
  result.reserve(target.num_vertices());
  for (hin::VertexId vt = 0; vt < target.num_vertices(); ++vt) {
    result.push_back(dehin.Deanonymize(target, vt, max_distance));
  }
  return result;
}

// Every target vertex at n = 0..2: `config` with the shared match cache on
// and off, each against the literal reference. Returns the cache-on Dehin's
// counters so callers can check which layers engaged.
DehinStats ExpectMatchesLiteral(const hin::Graph& target,
                                const hin::Graph& aux,
                                const DehinConfig& config) {
  DehinConfig flipped = config;
  flipped.use_shared_cache = !config.use_shared_cache;
  const Dehin dehin(&aux, config);
  const Dehin other(&aux, flipped);
  const LiteralDehin literal(target, aux, config);
  for (const int n : {0, 1, 2}) {
    std::vector<std::vector<hin::VertexId>> expected;
    for (hin::VertexId vt = 0; vt < target.num_vertices(); ++vt) {
      expected.push_back(literal.Deanonymize(vt, n));
    }
    EXPECT_EQ(AllCandidates(dehin, target, n), expected) << "n=" << n;
    EXPECT_EQ(AllCandidates(other, target, n), expected)
        << "n=" << n << " shared cache flipped";
  }
  return dehin.stats();
}

class DehinAccelerationDifferentialTest
    : public testing::TestWithParam<PropertyParams> {};

TEST_P(DehinAccelerationDifferentialTest, AcceleratedMatchesLegacyScan) {
  const PropertyParams p = GetParam();
  synth::TqqConfig config;
  config.num_users = 2000;
  synth::PlantedTargetSpec spec;
  spec.target_size = 80;
  spec.density = 0.02;
  util::Rng rng(p.seed + 100);
  auto anonymizer = MakeAnonymizer(p.defense);
  auto dataset = eval::BuildExperimentDataset(
      config, spec, synth::GrowthConfig{}, *anonymizer, p.reconfigured, &rng);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  for (const bool exact : {false, true}) {
    for (const bool in_edges : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "exact=" << exact << " in_edges=" << in_edges);
      DehinConfig attack;
      attack.match = DefaultTqqMatchOptions();
      attack.match.growth_aware = !exact;
      attack.match.use_in_edges = in_edges;
      if (p.reconfigured) attack.saturation_fraction = 0.5;
      const DehinStats stats = ExpectMatchesLiteral(
          dataset.value().target, dataset.value().auxiliary, attack);
      // The degree check engaged (this is a differential test, not two runs
      // of the same decision). Saturation-heavy pipelines may legitimately
      // never reject, and exact matching leaves few candidates to test, so
      // only assert on the plain baseline.
      if (p.defense == Defense::kKdda && !p.reconfigured && !exact) {
        EXPECT_GT(stats.prefilter_rejects, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pipelines, DehinAccelerationDifferentialTest,
    testing::Values(
        PropertyParams{Defense::kKdda, false, 1},
        PropertyParams{Defense::kKdda, true, 2},
        PropertyParams{Defense::kCga, true, 3},
        PropertyParams{Defense::kVwCga, true, 4},
        PropertyParams{Defense::kKDegree, true, 5},
        PropertyParams{Defense::kBucketing, false, 6}));

// Exact (time-synchronized) and growth-aware matching, each with and
// without the in-edge (reverse meta path) runs.
TEST(DehinAccelerationDifferentialTest, ExactModeAndInEdgesMatchLegacy) {
  synth::TqqConfig config;
  config.num_users = 2000;
  synth::PlantedTargetSpec spec;
  spec.target_size = 80;
  spec.density = 0.02;
  synth::GrowthConfig no_growth;
  no_growth.new_user_fraction = 0.0;
  no_growth.new_edge_fraction = 0.0;
  no_growth.attr_growth_prob = 0.0;
  no_growth.strength_growth_prob = 0.0;
  util::Rng rng(42);
  anon::KddAnonymizer anonymizer;
  auto dataset = eval::BuildExperimentDataset(config, spec, no_growth,
                                              anonymizer, false, &rng);
  ASSERT_TRUE(dataset.ok());

  for (const bool exact : {false, true}) {
    for (const bool in_edges : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "exact=" << exact << " in_edges=" << in_edges);
      DehinConfig attack;
      attack.match = DefaultTqqMatchOptions();
      attack.match.growth_aware = !exact;
      attack.match.use_in_edges = in_edges;
      ExpectMatchesLiteral(dataset.value().target, dataset.value().auxiliary,
                           attack);
    }
  }
}

// A custom link matcher keeps the degree check, which holds for any
// strength predicate: a perfect left matching needs as many auxiliary
// neighbors as target neighbors whatever the edges may carry.
TEST(DehinAccelerationDifferentialTest, LinkOverrideMatchesReference) {
  synth::TqqConfig config;
  config.num_users = 1500;
  synth::PlantedTargetSpec spec;
  spec.target_size = 60;
  spec.density = 0.02;
  util::Rng rng(43);
  anon::KddAnonymizer anonymizer;
  auto dataset = eval::BuildExperimentDataset(
      config, spec, synth::GrowthConfig{}, anonymizer, false, &rng);
  ASSERT_TRUE(dataset.ok());

  // Deliberately not monotone in the strengths.
  DehinConfig attack;
  attack.match = DefaultTqqMatchOptions();
  attack.link_match_override = [](hin::Strength t, hin::Strength a) {
    return (t % 2) == (a % 2);
  };
  const DehinStats stats = ExpectMatchesLiteral(
      dataset.value().target, dataset.value().auxiliary, attack);
  EXPECT_GT(stats.prefilter_rejects, 0u);
}

// Regression for the legacy memo-key packing, which stored (vt << 36 |
// va << 4 | depth) in one uint64: any max_distance > 15 overflowed the
// 4-bit depth field and silently collided depth d with depth d & 0xF,
// corrupting candidate sets. The widened per-depth tables must keep deep
// recursions sound, monotone, and identical with the shared cache on and
// off. (The literal reference is exponential in n; the degree check does
// not depend on depth, and the tests above pin it at n <= 2.)
TEST(DehinDeepRecursionTest, DistancesBeyondFifteenStaySoundAndMonotone) {
  synth::TqqConfig config;
  config.num_users = 1500;
  synth::PlantedTargetSpec spec;
  spec.target_size = 60;
  spec.density = 0.02;
  util::Rng rng(44);
  anon::KddAnonymizer anonymizer;
  auto dataset = eval::BuildExperimentDataset(
      config, spec, synth::GrowthConfig{}, anonymizer, false, &rng);
  ASSERT_TRUE(dataset.ok());

  DehinConfig accelerated;
  accelerated.match = DefaultTqqMatchOptions();
  DehinConfig per_call = accelerated;
  per_call.use_shared_cache = false;
  Dehin fast(&dataset.value().auxiliary, accelerated);
  Dehin slow(&dataset.value().auxiliary, per_call);

  for (hin::VertexId vt = 0; vt < dataset.value().target.num_vertices();
       ++vt) {
    const hin::VertexId truth = dataset.value().ground_truth[vt];
    std::vector<hin::VertexId> previous;
    // 15 is the last depth the old packing represented; 16 wrapped to 0
    // and 17 collided with depth-1 entries.
    for (const int n : {15, 16, 17, 20}) {
      const auto candidates = fast.Deanonymize(dataset.value().target, vt, n);
      ASSERT_EQ(candidates, slow.Deanonymize(dataset.value().target, vt, n))
          << "vt=" << vt << " n=" << n;
      ASSERT_TRUE(
          std::binary_search(candidates.begin(), candidates.end(), truth))
          << "vt=" << vt << " n=" << n;
      if (!previous.empty()) {
        // Deeper matching only adds constraints.
        ASSERT_TRUE(std::includes(previous.begin(), previous.end(),
                                  candidates.begin(), candidates.end()))
            << "vt=" << vt << " n=" << n;
      }
      previous = candidates;
    }
  }
}

}  // namespace
}  // namespace hinpriv::core
