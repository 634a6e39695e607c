#include "hin/graph_builder.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "hin/graph.h"
#include "hin/schema.h"
#include "sort_based_build.h"
#include "util/random.h"

namespace hinpriv::hin {
namespace {

NetworkSchema SimpleSchema() {
  NetworkSchema schema;
  const EntityTypeId user = schema.AddEntityType("User");
  schema.AddAttribute(user, "yob", false);
  schema.AddAttribute(user, "count", true);
  schema.AddLinkType("follow", user, user, false, false, false);
  schema.AddLinkType("mention", user, user, true, true, false);
  return schema;
}

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder builder(SimpleSchema());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value().num_vertices(), 0u);
  EXPECT_EQ(graph.value().num_edges(), 0u);
  EXPECT_EQ(graph.value().num_link_types(), 2u);
}

TEST(GraphBuilderTest, VerticesAndAttributes) {
  GraphBuilder builder(SimpleSchema());
  const VertexId a = builder.AddVertex(0);
  const VertexId b = builder.AddVertex(0);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  ASSERT_TRUE(builder.SetAttribute(a, 0, 1980).ok());
  ASSERT_TRUE(builder.SetAttribute(a, 1, 42).ok());
  ASSERT_TRUE(builder.SetAttribute(b, 0, 1990).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value().attribute(a, 0), 1980);
  EXPECT_EQ(graph.value().attribute(a, 1), 42);
  EXPECT_EQ(graph.value().attribute(b, 0), 1990);
  EXPECT_EQ(graph.value().attribute(b, 1), 0);  // default
  EXPECT_EQ(graph.value().NumVerticesOfType(0), 2u);
}

TEST(GraphBuilderTest, AddVerticesBulk) {
  GraphBuilder builder(SimpleSchema());
  const VertexId first = builder.AddVertices(0, 5);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(builder.num_vertices(), 5u);
  const VertexId next = builder.AddVertices(0, 3);
  EXPECT_EQ(next, 5u);
  EXPECT_EQ(builder.num_vertices(), 8u);
}

TEST(GraphBuilderTest, InvalidEntityTypeRejected) {
  GraphBuilder builder(SimpleSchema());
  EXPECT_EQ(builder.AddVertex(5), kInvalidVertex);
  EXPECT_EQ(builder.AddVertices(5, 3), kInvalidVertex);
}

TEST(GraphBuilderTest, SetAttributeValidation) {
  GraphBuilder builder(SimpleSchema());
  const VertexId v = builder.AddVertex(0);
  EXPECT_FALSE(builder.SetAttribute(99, 0, 1).ok());
  EXPECT_FALSE(builder.SetAttribute(v, 7, 1).ok());
}

TEST(GraphBuilderTest, EdgesSortedAndQueryable) {
  GraphBuilder builder(SimpleSchema());
  builder.AddVertices(0, 4);
  ASSERT_TRUE(builder.AddEdge(0, 3, 0).ok());
  ASSERT_TRUE(builder.AddEdge(0, 1, 0).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2, 0).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  const auto edges = graph.value().OutEdges(0, 0);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].neighbor, 1u);
  EXPECT_EQ(edges[1].neighbor, 2u);
  EXPECT_EQ(edges[2].neighbor, 3u);
  EXPECT_TRUE(graph.value().HasEdge(0, 0, 2));
  EXPECT_FALSE(graph.value().HasEdge(0, 2, 0));
  EXPECT_EQ(graph.value().OutDegree(0, 0), 3u);
  EXPECT_EQ(graph.value().InDegree(0, 3), 1u);
}

TEST(GraphBuilderTest, InEdgesMirrorOutEdges) {
  GraphBuilder builder(SimpleSchema());
  builder.AddVertices(0, 3);
  ASSERT_TRUE(builder.AddEdge(0, 2, 1, 5).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, 1, 7).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  const auto in = graph.value().InEdges(1, 2);
  ASSERT_EQ(in.size(), 2u);
  EXPECT_EQ(in[0].neighbor, 0u);
  EXPECT_EQ(in[0].strength, 5u);
  EXPECT_EQ(in[1].neighbor, 1u);
  EXPECT_EQ(in[1].strength, 7u);
}

TEST(GraphBuilderTest, DuplicateEdgesMergeBySummingStrength) {
  GraphBuilder builder(SimpleSchema());
  builder.AddVertices(0, 2);
  ASSERT_TRUE(builder.AddEdge(0, 1, 1, 3).ok());
  ASSERT_TRUE(builder.AddEdge(0, 1, 1, 4).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value().num_edges(), 1u);
  EXPECT_EQ(graph.value().EdgeStrength(1, 0, 1), 7u);
}

TEST(GraphBuilderTest, EdgeValidation) {
  GraphBuilder builder(SimpleSchema());
  builder.AddVertices(0, 2);
  EXPECT_FALSE(builder.AddEdge(0, 9, 0).ok());   // endpoint out of range
  EXPECT_FALSE(builder.AddEdge(0, 1, 9).ok());   // link type out of range
  EXPECT_FALSE(builder.AddEdge(0, 1, 0, 0).ok());  // zero strength
  EXPECT_FALSE(builder.AddEdge(0, 0, 0).ok());   // self-link not allowed
}

TEST(GraphBuilderTest, SelfLinkAllowedWhenSchemaSaysSo) {
  NetworkSchema schema;
  const EntityTypeId node = schema.AddEntityType("N");
  schema.AddLinkType("self", node, node, false, false, true);
  GraphBuilder builder(schema);
  builder.AddVertex(0);
  EXPECT_TRUE(builder.AddEdge(0, 0, 0).ok());
}

TEST(GraphBuilderTest, EndpointEntityTypesEnforced) {
  NetworkSchema schema;
  const EntityTypeId user = schema.AddEntityType("User");
  const EntityTypeId tweet = schema.AddEntityType("Tweet");
  schema.AddLinkType("post", user, tweet, false, false, false);
  GraphBuilder builder(schema);
  const VertexId u = builder.AddVertex(user);
  const VertexId t = builder.AddVertex(tweet);
  EXPECT_TRUE(builder.AddEdge(u, t, 0).ok());
  EXPECT_FALSE(builder.AddEdge(t, u, 0).ok());
  EXPECT_FALSE(builder.AddEdge(u, u, 0).ok());
}

TEST(GraphBuilderTest, MixedEntityTypeAttributeColumns) {
  NetworkSchema schema;
  const EntityTypeId a = schema.AddEntityType("A");
  const EntityTypeId b = schema.AddEntityType("B");
  schema.AddAttribute(a, "x", false);
  schema.AddAttribute(b, "y", false);
  schema.AddAttribute(b, "z", false);
  GraphBuilder builder(schema);
  const VertexId v0 = builder.AddVertex(a);
  const VertexId v1 = builder.AddVertex(b);
  const VertexId v2 = builder.AddVertex(a);
  ASSERT_TRUE(builder.SetAttribute(v0, 0, 10).ok());
  ASSERT_TRUE(builder.SetAttribute(v1, 1, 20).ok());
  ASSERT_TRUE(builder.SetAttribute(v2, 0, 30).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value().entity_type(v1), b);
  EXPECT_EQ(graph.value().attribute(v0, 0), 10);
  EXPECT_EQ(graph.value().attribute(v1, 1), 20);
  EXPECT_EQ(graph.value().attribute(v2, 0), 30);
  EXPECT_EQ(graph.value().dense_index(v2), 1u);
  const auto column = graph.value().AttributeColumn(a, 0);
  ASSERT_EQ(column.size(), 2u);
  EXPECT_EQ(column[0], 10);
  EXPECT_EQ(column[1], 30);
}

TEST(GraphBuilderTest, TotalOutDegreeSumsLinkTypes) {
  GraphBuilder builder(SimpleSchema());
  builder.AddVertices(0, 3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2, 0).ok());
  ASSERT_TRUE(builder.AddEdge(0, 1, 1, 2).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value().TotalOutDegree(0), 3u);
  EXPECT_EQ(graph.value().TotalOutDegree(1), 0u);
}

TEST(GraphBuilderTest, CopyHelpersPreserveEverything) {
  GraphBuilder builder(SimpleSchema());
  builder.AddVertices(0, 3);
  ASSERT_TRUE(builder.SetAttribute(1, 0, 77).ok());
  ASSERT_TRUE(builder.AddEdge(0, 1, 1, 9).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());

  GraphBuilder copy_builder(graph.value().schema());
  ASSERT_TRUE(CopyVerticesWithAttributes(graph.value(), &copy_builder).ok());
  ASSERT_TRUE(CopyEdges(graph.value(), &copy_builder).ok());
  auto copy = std::move(copy_builder).Build();
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy.value().num_vertices(), 3u);
  EXPECT_EQ(copy.value().attribute(1, 0), 77);
  EXPECT_EQ(copy.value().EdgeStrength(1, 0, 1), 9u);
}

// --- Property: the counting build equals the sort-based one --------------

// Users and tweets interleaved in id order; a user->user link with
// strengths and self-links, one without either, and user->tweet.
NetworkSchema MultigraphSchema() {
  NetworkSchema schema;
  const EntityTypeId user = schema.AddEntityType("User");
  const EntityTypeId tweet = schema.AddEntityType("Tweet");
  schema.AddAttribute(user, "yob", false);
  schema.AddLinkType("mention", user, user, true, true, true);
  schema.AddLinkType("follow", user, user, false, false, false);
  schema.AddLinkType("post", user, tweet, false, false, false);
  return schema;
}

enum class StagingOrder { kShuffled, kSorted, kReversed };

// Random multigraphs: endpoints drawn from a small pool at the top of the
// id range, so that (src, dst) pairs repeat and the vertices below it stay
// isolated, strengths that sometimes wrap when summed, and the edges
// staged shuffled, in (src, dst) order (no run needs sorting) or reversed
// (every run with two neighbors or more does).
// Every out- and in-run must equal the sort-based build's, entry for
// entry, with the same strengths.
TEST(GraphBuilderPropertyTest, BuildMatchesSortBasedBuild) {
  const NetworkSchema schema = MultigraphSchema();
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    for (StagingOrder order : {StagingOrder::kShuffled, StagingOrder::kSorted,
                               StagingOrder::kReversed}) {
      util::Rng rng(seed);
      GraphBuilder builder(schema);
      const size_t n = rng.UniformU64(seed % 10 == 0 ? 3 : 300);
      std::vector<VertexId> users;
      std::vector<VertexId> tweets;
      for (size_t i = 0; i < n; ++i) {
        const EntityTypeId type = rng.Bernoulli(0.8) ? 0 : 1;
        (type == 0 ? users : tweets).push_back(builder.AddVertex(type));
      }
      // Endpoints come from pools of at most 12 users / 6 tweets.
      const auto pick = [&rng](const std::vector<VertexId>& from) {
        const size_t pool = std::min<size_t>(from.size(), 12);
        return from[from.size() - pool + rng.UniformU64(pool)];
      };
      std::vector<std::vector<testing_build::StagedEdge>> staged(3);
      const size_t num_edges = users.empty() ? 0 : rng.UniformU64(2000);
      for (size_t i = 0; i < num_edges; ++i) {
        const LinkTypeId lt = static_cast<LinkTypeId>(rng.UniformU64(3));
        if (lt == 2 && tweets.empty()) continue;
        const VertexId src = pick(users);
        const VertexId dst = lt == 2 ? pick(tweets) : pick(users);
        if (lt == 1 && src == dst) continue;
        const Strength strength =
            lt != 0 ? 1
            : rng.Bernoulli(0.05)
                ? std::numeric_limits<Strength>::max() -
                      static_cast<Strength>(rng.UniformU64(3))
                : static_cast<Strength>(1 + rng.UniformU64(9));
        staged[lt].push_back({src, dst, strength});
      }
      std::vector<std::pair<LinkTypeId, testing_build::StagedEdge>> rows;
      for (LinkTypeId lt = 0; lt < 3; ++lt) {
        for (const auto& e : staged[lt]) rows.push_back({lt, e});
      }
      const auto by_pair = [](const auto& a, const auto& b) {
        return a.second.src != b.second.src ? a.second.src < b.second.src
                                            : a.second.dst < b.second.dst;
      };
      if (order == StagingOrder::kShuffled) rng.Shuffle(&rows);
      if (order != StagingOrder::kShuffled) {
        std::stable_sort(rows.begin(), rows.end(), by_pair);
      }
      if (order == StagingOrder::kReversed) {
        std::reverse(rows.begin(), rows.end());
      }
      for (const auto& [lt, e] : rows) {
        ASSERT_TRUE(builder.AddEdge(e.src, e.dst, lt, e.strength).ok());
      }
      auto built = std::move(builder).Build();
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      const Graph& g = built.value();

      size_t total = 0;
      for (LinkTypeId lt = 0; lt < 3; ++lt) {
        const testing_build::LinkCsr want =
            testing_build::SortBasedBuild(n, staged[lt]);
        total += want.out.edges.size();
        for (VertexId v = 0; v < n; ++v) {
          const auto out = g.OutEdges(lt, v);
          const auto in = g.InEdges(lt, v);
          const std::vector<Edge> want_out(
              want.out.edges.begin() + want.out.offsets[v],
              want.out.edges.begin() + want.out.offsets[v + 1]);
          const std::vector<Edge> want_in(
              want.in.edges.begin() + want.in.offsets[v],
              want.in.edges.begin() + want.in.offsets[v + 1]);
          ASSERT_EQ(std::vector<Edge>(out.begin(), out.end()), want_out)
              << "seed " << seed << " order " << static_cast<int>(order)
              << " lt " << lt << " out-run of " << v;
          ASSERT_EQ(std::vector<Edge>(in.begin(), in.end()), want_in)
              << "seed " << seed << " order " << static_cast<int>(order)
              << " lt " << lt << " in-run of " << v;
        }
      }
      EXPECT_EQ(g.num_edges(), total);
    }
  }
}

}  // namespace
}  // namespace hinpriv::hin
