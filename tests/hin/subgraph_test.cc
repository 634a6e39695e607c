#include "hin/subgraph.h"

#include <set>

#include <gtest/gtest.h>

#include "hin/graph_builder.h"
#include "util/random.h"

namespace hinpriv::hin {
namespace {

NetworkSchema UserSchema() {
  NetworkSchema schema;
  const EntityTypeId user = schema.AddEntityType("User");
  schema.AddAttribute(user, "yob", false);
  schema.AddLinkType("follow", user, user, false, false, false);
  schema.AddLinkType("mention", user, user, true, true, false);
  return schema;
}

// A small line-plus-chords graph used by most tests here.
Graph MakeGraph() {
  GraphBuilder builder(UserSchema());
  builder.AddVertices(0, 6);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_TRUE(builder.SetAttribute(v, 0, 1980 + static_cast<int>(v)).ok());
  }
  EXPECT_TRUE(builder.AddEdge(0, 1, 0).ok());
  EXPECT_TRUE(builder.AddEdge(1, 2, 0).ok());
  EXPECT_TRUE(builder.AddEdge(2, 3, 0).ok());
  EXPECT_TRUE(builder.AddEdge(0, 3, 1, 7).ok());
  EXPECT_TRUE(builder.AddEdge(4, 5, 1, 2).ok());
  EXPECT_TRUE(builder.AddEdge(5, 0, 0).ok());
  auto graph = std::move(builder).Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(InducedSubgraphTest, KeepsEdgesAmongSelectedVertices) {
  const Graph parent = MakeGraph();
  auto sub = InducedSubgraph(parent, {0, 1, 3});
  ASSERT_TRUE(sub.ok());
  const Graph& g = sub.value().graph;
  EXPECT_EQ(g.num_vertices(), 3u);
  // 0->1 (follow) and 0->3 (mention, strength 7) survive; 2 is outside.
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 0, 1));
  EXPECT_EQ(g.EdgeStrength(1, 0, 2), 7u);  // 3 remapped to local id 2
  EXPECT_EQ(sub.value().to_parent, (std::vector<VertexId>{0, 1, 3}));
}

TEST(InducedSubgraphTest, PreservesAttributes) {
  const Graph parent = MakeGraph();
  auto sub = InducedSubgraph(parent, {4, 2});
  ASSERT_TRUE(sub.ok());
  // Vertex order follows the input list.
  EXPECT_EQ(sub.value().graph.attribute(0, 0), 1984);
  EXPECT_EQ(sub.value().graph.attribute(1, 0), 1982);
}

TEST(InducedSubgraphTest, EmptySelection) {
  const Graph parent = MakeGraph();
  auto sub = InducedSubgraph(parent, {});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub.value().graph.num_vertices(), 0u);
}

TEST(InducedSubgraphTest, WholeGraphRoundTrip) {
  const Graph parent = MakeGraph();
  auto sub = InducedSubgraph(parent, {0, 1, 2, 3, 4, 5});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub.value().graph.num_edges(), parent.num_edges());
  for (LinkTypeId lt = 0; lt < parent.num_link_types(); ++lt) {
    for (VertexId v = 0; v < parent.num_vertices(); ++v) {
      ASSERT_EQ(sub.value().graph.OutDegree(lt, v), parent.OutDegree(lt, v));
    }
  }
}

TEST(InducedSubgraphTest, RejectsDuplicatesAndOutOfRange) {
  const Graph parent = MakeGraph();
  EXPECT_FALSE(InducedSubgraph(parent, {0, 0}).ok());
  EXPECT_FALSE(InducedSubgraph(parent, {0, 99}).ok());
}

TEST(SampleInducedSubgraphTest, SamplesRequestedCount) {
  const Graph parent = MakeGraph();
  util::Rng rng(1);
  auto sub = SampleInducedSubgraph(parent, 4, &rng);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub.value().graph.num_vertices(), 4u);
  // Parent ids are distinct and in range.
  std::set<VertexId> distinct(sub.value().to_parent.begin(),
                              sub.value().to_parent.end());
  EXPECT_EQ(distinct.size(), 4u);
  for (VertexId v : distinct) EXPECT_LT(v, parent.num_vertices());
}

TEST(SampleInducedSubgraphTest, RejectsOversizedSample) {
  const Graph parent = MakeGraph();
  util::Rng rng(1);
  EXPECT_FALSE(SampleInducedSubgraph(parent, 100, &rng).ok());
}

TEST(SampleInducedSubgraphTest, FiltersByEntityType) {
  NetworkSchema schema;
  const EntityTypeId user = schema.AddEntityType("User");
  const EntityTypeId tweet = schema.AddEntityType("Tweet");
  schema.AddLinkType("post", user, tweet, false, false, false);
  GraphBuilder builder(schema);
  builder.AddVertices(user, 3);
  builder.AddVertices(tweet, 5);
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());

  util::Rng rng(2);
  auto sub = SampleInducedSubgraph(graph.value(), 3, &rng, user);
  ASSERT_TRUE(sub.ok());
  for (VertexId v = 0; v < sub.value().graph.num_vertices(); ++v) {
    EXPECT_EQ(sub.value().graph.entity_type(v), user);
  }
  // Asking for more users than exist fails even though tweets abound.
  EXPECT_FALSE(SampleInducedSubgraph(graph.value(), 4, &rng, user).ok());
  // Bogus entity type fails.
  EXPECT_FALSE(SampleInducedSubgraph(graph.value(), 1, &rng, 9).ok());
}

}  // namespace
}  // namespace hinpriv::hin
