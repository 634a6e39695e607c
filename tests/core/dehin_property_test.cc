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
// Differential tests for the acceleration layers: the neighborhood-stats
// prefilter and the cross-call shared match cache must be invisible in the
// results — bit-identical candidate sets versus the legacy full scan, on
// every pipeline, at every distance.

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

  DehinConfig accelerated;
  accelerated.match = DefaultTqqMatchOptions();
  if (p.reconfigured) accelerated.saturation_fraction = 0.5;
  DehinConfig legacy = accelerated;
  legacy.use_prefilter = false;
  legacy.use_shared_cache = false;

  Dehin fast(&dataset.value().auxiliary, accelerated);
  Dehin slow(&dataset.value().auxiliary, legacy);
  for (int n : {0, 1, 2, 3}) {
    const auto fast_sets = AllCandidates(fast, dataset.value().target, n);
    const auto slow_sets = AllCandidates(slow, dataset.value().target, n);
    ASSERT_EQ(fast_sets, slow_sets)
        << "defense=" << static_cast<int>(p.defense)
        << " reconfigured=" << p.reconfigured << " n=" << n;
  }
  // The layers actually engaged (this is a differential test, not two runs
  // of the same code path). Saturation-heavy pipelines may legitimately
  // never reject, so only assert on the plain baseline.
  if (p.defense == Defense::kKdda && !p.reconfigured) {
    EXPECT_GT(fast.stats().prefilter_rejects, 0u);
  }
  EXPECT_EQ(slow.stats().prefilter_rejects, 0u);
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

// Exact (time-synchronized) matching exercises the multiset-containment
// branch of the prefilter; in-edge matching exercises the interleaved
// direction slots. Both must stay answer-preserving.
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
    DehinConfig accelerated;
    accelerated.match = DefaultTqqMatchOptions();
    accelerated.match.growth_aware = !exact;
    accelerated.match.use_in_edges = true;
    DehinConfig legacy = accelerated;
    legacy.use_prefilter = false;
    legacy.use_shared_cache = false;
    Dehin fast(&dataset.value().auxiliary, accelerated);
    Dehin slow(&dataset.value().auxiliary, legacy);
    for (int n : {1, 2}) {
      ASSERT_EQ(AllCandidates(fast, dataset.value().target, n),
                AllCandidates(slow, dataset.value().target, n))
          << "exact=" << exact << " n=" << n;
    }
  }
}

// A custom link matcher replaces the strength semantics the prefilter
// reasons about, so the prefilter must disable itself — and the results
// must still agree with the unaccelerated run of the same override.
TEST(DehinAccelerationDifferentialTest, LinkOverrideDisablesPrefilter) {
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

  // Deliberately NOT monotone in the strengths: dominance reasoning would
  // be unsound for this predicate.
  auto parity_match = [](hin::Strength t, hin::Strength a) {
    return (t % 2) == (a % 2);
  };
  DehinConfig accelerated;
  accelerated.match = DefaultTqqMatchOptions();
  accelerated.link_match_override = parity_match;
  DehinConfig legacy = accelerated;
  legacy.use_prefilter = false;
  legacy.use_shared_cache = false;
  Dehin fast(&dataset.value().auxiliary, accelerated);
  Dehin slow(&dataset.value().auxiliary, legacy);
  for (int n : {1, 2}) {
    ASSERT_EQ(AllCandidates(fast, dataset.value().target, n),
              AllCandidates(slow, dataset.value().target, n));
  }
  EXPECT_EQ(fast.stats().prefilter_rejects, 0u);  // auto-disabled
}

// Regression for the legacy memo-key packing, which stored (vt << 36 |
// va << 4 | depth) in one uint64: any max_distance > 15 overflowed the
// 4-bit depth field and silently collided depth d with depth d & 0xF,
// corrupting candidate sets. The widened per-depth tables must keep deep
// recursions sound, monotone, and identical across acceleration modes.
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
  DehinConfig legacy = accelerated;
  legacy.use_prefilter = false;
  legacy.use_shared_cache = false;
  Dehin fast(&dataset.value().auxiliary, accelerated);
  Dehin slow(&dataset.value().auxiliary, legacy);

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
