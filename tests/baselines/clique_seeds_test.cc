#include "baselines/clique_seeds.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "hin/graph_builder.h"
#include "hin/tqq_schema.h"
#include "synth/planted_target.h"
#include "util/random.h"

namespace hinpriv::baselines {
namespace {

using hin::VertexId;

// Graph with one triangle {0,1,2} (via varied link types/directions), one
// 4-clique {3,4,5,6} on follow links, and pendant vertices 7 and 8.
hin::Graph CliqueyGraph() {
  hin::GraphBuilder builder(hin::TqqTargetSchema());
  builder.AddVertices(0, 9);
  EXPECT_TRUE(builder.AddEdge(0, 1, hin::kFollowLink).ok());
  EXPECT_TRUE(builder.AddEdge(2, 1, hin::kMentionLink, 2).ok());
  EXPECT_TRUE(builder.AddEdge(0, 2, hin::kCommentLink, 1).ok());
  for (VertexId a = 3; a <= 6; ++a) {
    for (VertexId b = 3; b <= 6; ++b) {
      if (a < b) {
        EXPECT_TRUE(builder.AddEdge(a, b, hin::kFollowLink).ok());
      }
    }
  }
  EXPECT_TRUE(builder.AddEdge(7, 0, hin::kFollowLink).ok());
  // Pendant edges give the triangle members pairwise-distinct degrees
  // (3, 2, 4), which clique-seed alignment requires; they are chosen so no
  // additional triangle appears.
  EXPECT_TRUE(builder.AddEdge(2, 8, hin::kFollowLink).ok());
  EXPECT_TRUE(builder.AddEdge(2, 3, hin::kMentionLink, 1).ok());
  auto graph = std::move(builder).Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(FindCliquesTest, FindsTrianglesAcrossLinkTypesAndDirections) {
  const hin::Graph graph = CliqueyGraph();
  CliqueSeedConfig config;
  config.clique_size = 3;
  auto cliques = FindCliques(graph, config);
  ASSERT_TRUE(cliques.ok());
  // {0,1,2} plus the four triangles inside the 4-clique {3,4,5,6}.
  EXPECT_EQ(cliques.value().size(), 5u);
  EXPECT_NE(std::find(cliques.value().begin(), cliques.value().end(),
                      Clique({0, 1, 2})),
            cliques.value().end());
}

TEST(FindCliquesTest, FindsFourCliques) {
  const hin::Graph graph = CliqueyGraph();
  CliqueSeedConfig config;
  config.clique_size = 4;
  auto cliques = FindCliques(graph, config);
  ASSERT_TRUE(cliques.ok());
  ASSERT_EQ(cliques.value().size(), 1u);
  EXPECT_EQ(cliques.value()[0], Clique({3, 4, 5, 6}));
}

TEST(FindCliquesTest, DegreeCapExcludesHubs) {
  // Triangle {0,1,2} (degree 2 each) next to a 4-clique {3..6} (degree 3
  // each): a cap of 2 keeps only the triangle.
  hin::GraphBuilder builder(hin::TqqTargetSchema());
  builder.AddVertices(0, 7);
  EXPECT_TRUE(builder.AddEdge(0, 1, hin::kFollowLink).ok());
  EXPECT_TRUE(builder.AddEdge(1, 2, hin::kFollowLink).ok());
  EXPECT_TRUE(builder.AddEdge(0, 2, hin::kFollowLink).ok());
  for (VertexId a = 3; a <= 6; ++a) {
    for (VertexId b = 3; b <= 6; ++b) {
      if (a < b) {
        EXPECT_TRUE(builder.AddEdge(a, b, hin::kFollowLink).ok());
      }
    }
  }
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  CliqueSeedConfig config;
  config.clique_size = 3;
  config.degree_cap = 2;
  auto cliques = FindCliques(graph.value(), config);
  ASSERT_TRUE(cliques.ok());
  ASSERT_EQ(cliques.value().size(), 1u);
  EXPECT_EQ(cliques.value()[0], Clique({0, 1, 2}));
}

TEST(FindCliquesTest, ValidatesConfig) {
  const hin::Graph graph = CliqueyGraph();
  CliqueSeedConfig config;
  config.clique_size = 1;
  EXPECT_FALSE(FindCliques(graph, config).ok());
}

TEST(FindCliquesTest, MaxCliquesCapIsHonored) {
  const hin::Graph graph = CliqueyGraph();
  CliqueSeedConfig config;
  config.clique_size = 3;
  config.max_cliques = 2;
  auto cliques = FindCliques(graph, config);
  ASSERT_TRUE(cliques.ok());
  EXPECT_EQ(cliques.value().size(), 2u);
}

TEST(GenerateCliqueSeedsTest, SelfMatchRecoversIdentity) {
  // target == auxiliary: every unique-signature clique maps onto itself.
  const hin::Graph graph = CliqueyGraph();
  auto seeds = GenerateCliqueSeeds(graph, graph);
  ASSERT_TRUE(seeds.ok());
  EXPECT_GT(seeds.value().matched_cliques, 0u);
  for (const auto& [vt, va] : seeds.value().seeds) {
    EXPECT_EQ(vt, va);
  }
}

TEST(GenerateCliqueSeedsTest, AmbiguousSignaturesProduceNoSeeds) {
  // Two disjoint triangles with identical degree profiles: signatures
  // collide on the target side, so no seeds may be emitted.
  hin::GraphBuilder builder(hin::TqqTargetSchema());
  builder.AddVertices(0, 6);
  for (VertexId base : {0u, 3u}) {
    EXPECT_TRUE(builder.AddEdge(base, base + 1, hin::kFollowLink).ok());
    EXPECT_TRUE(builder.AddEdge(base + 1, base + 2, hin::kFollowLink).ok());
    EXPECT_TRUE(builder.AddEdge(base, base + 2, hin::kFollowLink).ok());
  }
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  auto seeds = GenerateCliqueSeeds(graph.value(), graph.value());
  ASSERT_TRUE(seeds.ok());
  EXPECT_EQ(seeds.value().target_cliques, 2u);
  EXPECT_TRUE(seeds.value().seeds.empty());
}

// The paper reports its 1000-user samples contain no cliques of size over
// 3. Our synthetic samples do contain 4-cliques, but only inside the hub
// cluster (every member degree >= 100) — exactly the cliques that are
// useless as seeds because hub degree signatures are never unique. Below
// the hub cluster there are none at all.
TEST(GenerateCliqueSeedsTest, LargeCliquesOnlyExistAmongHubs) {
  synth::TqqConfig config;
  config.num_users = 10000;
  synth::PlantedTargetSpec spec;
  spec.target_size = 1000;
  spec.density = 0.01;
  util::Rng rng(7);
  auto dataset =
      synth::BuildPlantedDataset(config, spec, synth::GrowthConfig{}, &rng);
  ASSERT_TRUE(dataset.ok());
  CliqueSeedConfig clique_config;
  clique_config.clique_size = 4;
  clique_config.degree_cap = 50;
  auto non_hub = FindCliques(dataset.value().target, clique_config);
  ASSERT_TRUE(non_hub.ok());
  EXPECT_EQ(non_hub.value().size(), 0u);
  clique_config.degree_cap = 500;
  auto with_hubs = FindCliques(dataset.value().target, clique_config);
  ASSERT_TRUE(with_hubs.ok());
  EXPECT_GT(with_hubs.value().size(), non_hub.value().size());
}

TEST(GenerateCliqueSeedsTest, SeedsFeedPropagationCorrectly) {
  // End-to-end in the adversary's best case: no background edges (sample
  // members interact only with each other) and no growth, so target and
  // auxiliary member degrees coincide and signatures are comparable.
  synth::TqqConfig config;
  config.num_users = 5000;
  config.zero_degree_prob = 1.0;  // suppress background interactions
  synth::PlantedTargetSpec spec;
  spec.target_size = 500;
  spec.density = 0.015;
  synth::GrowthConfig no_growth;
  no_growth.new_user_fraction = 0.0;
  no_growth.new_edge_fraction = 0.0;
  no_growth.attr_growth_prob = 0.0;
  no_growth.strength_growth_prob = 0.0;
  util::Rng rng(8);
  auto dataset = synth::BuildPlantedDataset(config, spec, no_growth, &rng);
  ASSERT_TRUE(dataset.ok());
  auto seeds =
      GenerateCliqueSeeds(dataset.value().target, dataset.value().auxiliary);
  ASSERT_TRUE(seeds.ok());
  size_t correct = 0;
  for (const auto& [vt, va] : seeds.value().seeds) {
    if (dataset.value().target_to_aux[vt] == va) ++correct;
  }
  // In this idealized setting the signatures are exact, so seeds are
  // plentiful and overwhelmingly correct.
  ASSERT_FALSE(seeds.value().seeds.empty());
  EXPECT_GE(correct * 10, seeds.value().seeds.size() * 9);
}

// Under realistic conditions — background interactions beyond the sample
// plus auxiliary growth — global auxiliary degrees no longer match
// in-sample target degrees, and clique seeding collapses: the paper's
// Section 2.2 critique of seed-based attacks, reproduced.
TEST(GenerateCliqueSeedsTest, RealisticConditionsStarveSeedDiscovery) {
  synth::TqqConfig config;
  config.num_users = 5000;
  synth::PlantedTargetSpec spec;
  spec.target_size = 500;
  spec.density = 0.015;
  util::Rng rng(9);
  auto dataset =
      synth::BuildPlantedDataset(config, spec, synth::GrowthConfig{}, &rng);
  ASSERT_TRUE(dataset.ok());
  auto seeds =
      GenerateCliqueSeeds(dataset.value().target, dataset.value().auxiliary);
  ASSERT_TRUE(seeds.ok());
  size_t correct = 0;
  for (const auto& [vt, va] : seeds.value().seeds) {
    if (dataset.value().target_to_aux[vt] == va) ++correct;
  }
  // Few-to-no correct seeds survive the degree drift.
  EXPECT_LT(correct, 5u);
}

}  // namespace
}  // namespace hinpriv::baselines
