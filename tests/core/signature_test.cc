#include "core/signature.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "serial_signatures.h"
#include "exec/executor.h"
#include "hin/graph_builder.h"
#include "hin/tqq_schema.h"
#include "synth/tqq_generator.h"
#include "util/random.h"

namespace hinpriv::core {
namespace {

hin::Graph BuildUsers(size_t n) {
  hin::GraphBuilder builder(hin::TqqTargetSchema());
  builder.AddVertices(0, n);
  auto graph = std::move(builder).Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

SignatureOptions TagOnlyOptions() {
  SignatureOptions options;
  options.attributes = {hin::kTagCountAttr};
  options.link_types = {hin::kFollowLink, hin::kMentionLink,
                        hin::kRetweetLink, hin::kCommentLink};
  return options;
}

TEST(SignatureTest, DistanceZeroDependsOnlyOnSelectedAttributes) {
  hin::GraphBuilder builder(hin::TqqTargetSchema());
  builder.AddVertices(0, 3);
  // Same tag count, different other attributes.
  ASSERT_TRUE(builder.SetAttribute(0, hin::kTagCountAttr, 5).ok());
  ASSERT_TRUE(builder.SetAttribute(1, hin::kTagCountAttr, 5).ok());
  ASSERT_TRUE(builder.SetAttribute(1, hin::kYobAttr, 1980).ok());
  ASSERT_TRUE(builder.SetAttribute(2, hin::kTagCountAttr, 6).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());

  const auto sigs = ComputeSignatures(graph.value(), TagOnlyOptions(), 0);
  ASSERT_EQ(sigs.size(), 1u);
  EXPECT_EQ(sigs[0][0], sigs[0][1]);
  EXPECT_NE(sigs[0][0], sigs[0][2]);
}

TEST(SignatureTest, NeighborhoodsDifferentiateAtDistanceOne) {
  hin::GraphBuilder builder(hin::TqqTargetSchema());
  builder.AddVertices(0, 4);
  // 0 and 1 share profiles; 0 mentions 2 (tag 7), 1 mentions 3 (tag 9).
  ASSERT_TRUE(builder.SetAttribute(2, hin::kTagCountAttr, 7).ok());
  ASSERT_TRUE(builder.SetAttribute(3, hin::kTagCountAttr, 9).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2, hin::kMentionLink, 5).ok());
  ASSERT_TRUE(builder.AddEdge(1, 3, hin::kMentionLink, 5).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());

  const auto sigs = ComputeSignatures(graph.value(), TagOnlyOptions(), 1);
  EXPECT_EQ(sigs[0][0], sigs[0][1]);  // identical at distance 0
  EXPECT_NE(sigs[1][0], sigs[1][1]);  // differentiated at distance 1
}

TEST(SignatureTest, IsomorphicNeighborhoodsShareSignatures) {
  hin::GraphBuilder builder(hin::TqqTargetSchema());
  builder.AddVertices(0, 6);
  // Users 0 and 1 each mention a tag-7 user with strength 5 and follow a
  // tag-2 user: structurally identical neighborhoods on distinct vertices.
  ASSERT_TRUE(builder.SetAttribute(2, hin::kTagCountAttr, 7).ok());
  ASSERT_TRUE(builder.SetAttribute(3, hin::kTagCountAttr, 7).ok());
  ASSERT_TRUE(builder.SetAttribute(4, hin::kTagCountAttr, 2).ok());
  ASSERT_TRUE(builder.SetAttribute(5, hin::kTagCountAttr, 2).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2, hin::kMentionLink, 5).ok());
  ASSERT_TRUE(builder.AddEdge(1, 3, hin::kMentionLink, 5).ok());
  ASSERT_TRUE(builder.AddEdge(0, 4, hin::kFollowLink).ok());
  ASSERT_TRUE(builder.AddEdge(1, 5, hin::kFollowLink).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());

  const auto sigs = ComputeSignatures(graph.value(), TagOnlyOptions(), 2);
  EXPECT_EQ(sigs[1][0], sigs[1][1]);
  EXPECT_EQ(sigs[2][0], sigs[2][1]);
}

TEST(SignatureTest, StrengthEntersTheSignature) {
  hin::GraphBuilder builder(hin::TqqTargetSchema());
  builder.AddVertices(0, 4);
  ASSERT_TRUE(builder.AddEdge(0, 2, hin::kMentionLink, 5).ok());
  ASSERT_TRUE(builder.AddEdge(1, 3, hin::kMentionLink, 6).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  const auto sigs = ComputeSignatures(graph.value(), TagOnlyOptions(), 1);
  EXPECT_NE(sigs[1][0], sigs[1][1]);
}

TEST(SignatureTest, LinkTypeEntersTheSignature) {
  hin::GraphBuilder builder(hin::TqqTargetSchema());
  builder.AddVertices(0, 4);
  ASSERT_TRUE(builder.AddEdge(0, 2, hin::kMentionLink, 5).ok());
  ASSERT_TRUE(builder.AddEdge(1, 3, hin::kCommentLink, 5).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  const auto sigs = ComputeSignatures(graph.value(), TagOnlyOptions(), 1);
  EXPECT_NE(sigs[1][0], sigs[1][1]);
}

TEST(SignatureTest, DisabledLinkTypesAreInvisible) {
  hin::GraphBuilder builder(hin::TqqTargetSchema());
  builder.AddVertices(0, 4);
  ASSERT_TRUE(builder.AddEdge(0, 2, hin::kRetweetLink, 3).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  SignatureOptions options = TagOnlyOptions();
  options.link_types = {hin::kFollowLink};  // retweet not utilized
  const auto sigs = ComputeSignatures(graph.value(), options, 1);
  EXPECT_EQ(sigs[1][0], sigs[1][1]);
}

TEST(SignatureTest, NeighborOrderIsCanonical) {
  // Same multiset of neighbors added in different order must hash equally.
  hin::GraphBuilder b1(hin::TqqTargetSchema());
  b1.AddVertices(0, 3);
  ASSERT_TRUE(b1.AddEdge(0, 1, hin::kMentionLink, 2).ok());
  ASSERT_TRUE(b1.AddEdge(0, 2, hin::kMentionLink, 9).ok());
  auto g1 = std::move(b1).Build();
  hin::GraphBuilder b2(hin::TqqTargetSchema());
  b2.AddVertices(0, 3);
  ASSERT_TRUE(b2.AddEdge(0, 2, hin::kMentionLink, 9).ok());
  ASSERT_TRUE(b2.AddEdge(0, 1, hin::kMentionLink, 2).ok());
  auto g2 = std::move(b2).Build();
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  const auto s1 = ComputeSignatures(g1.value(), TagOnlyOptions(), 1);
  const auto s2 = ComputeSignatures(g2.value(), TagOnlyOptions(), 1);
  EXPECT_EQ(s1[1][0], s2[1][0]);
}

TEST(SignatureTest, InEdgesChangeSignatureOnlyWhenEnabled) {
  hin::GraphBuilder builder(hin::TqqTargetSchema());
  builder.AddVertices(0, 3);
  ASSERT_TRUE(builder.AddEdge(2, 0, hin::kMentionLink, 4).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());

  SignatureOptions out_only = TagOnlyOptions();
  const auto sigs_out = ComputeSignatures(graph.value(), out_only, 1);
  EXPECT_EQ(sigs_out[1][0], sigs_out[1][1]);  // in-edge invisible

  SignatureOptions both = TagOnlyOptions();
  both.use_in_edges = true;
  const auto sigs_both = ComputeSignatures(graph.value(), both, 1);
  EXPECT_NE(sigs_both[1][0], sigs_both[1][1]);
}

TEST(SignatureTest, CountDistinct) {
  EXPECT_EQ(CountDistinct(std::vector<uint64_t>{}), 0u);
  EXPECT_EQ(CountDistinct(std::vector<uint64_t>{1, 1, 1}), 1u);
  EXPECT_EQ(CountDistinct(std::vector<uint64_t>{1, 2, 3, 2}), 3u);

  // 0 and UINT64_MAX are ordinary values, not table markers.
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(CountDistinct(std::vector<uint64_t>{0}), 1u);
  EXPECT_EQ(CountDistinct(std::vector<uint64_t>{kMax}), 1u);
  EXPECT_EQ(CountDistinct(std::vector<uint64_t>{0, kMax, kMax, 0, 1}), 3u);
  EXPECT_EQ(CountDistinct(std::vector<uint64_t>{42}), 1u);
  EXPECT_EQ(CountDistinct(std::vector<uint64_t>(10000, 0)), 1u);
  EXPECT_EQ(CountDistinct(std::vector<uint64_t>(10000, kMax)), 1u);

  // 100k random values, half of them from a range small enough to repeat
  // often and half anywhere in 64 bits.
  util::Rng rng(99);
  std::vector<uint64_t> values(100000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = i % 2 == 0 ? rng.UniformU64(30000) : rng.NextU64();
  }
  EXPECT_EQ(CountDistinct(values), testing_ladder::SortUniqueCount(values));
}

TEST(SignatureTest, EmptyGraphYieldsEmptyLevels) {
  const hin::Graph graph = BuildUsers(0);
  const auto sigs = ComputeSignatures(graph, TagOnlyOptions(), 2);
  ASSERT_EQ(sigs.size(), 3u);
  for (const auto& level : sigs) EXPECT_TRUE(level.empty());
}

// Property sweep on random graphs: signature count levels are monotone
// nondecreasing in distance (utilizing more neighbors can only refine the
// partition — equal sig_n implies equal sig_{n-1} ... except hash
// collisions, which are vanishingly unlikely at this scale).
class SignatureMonotonicityTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SignatureMonotonicityTest, CardinalityNondecreasingInDistance) {
  synth::TqqConfig config;
  config.num_users = 400;
  util::Rng rng(GetParam());
  auto graph = synth::GenerateTqqNetwork(config, &rng);
  ASSERT_TRUE(graph.ok());
  SignatureOptions options = TagOnlyOptions();
  const auto sigs = ComputeSignatures(graph.value(), options, 3);
  size_t prev = 0;
  for (const auto& level : sigs) {
    const size_t card = CountDistinct(level);
    EXPECT_GE(card, prev);
    prev = card;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignatureMonotonicityTest,
                         testing::Values(1, 2, 3, 4, 5, 11, 17, 23));

// The parallel ladder against the serial code it replaced: every level of
// every depth, bit for bit, on heap, mapped and grown graphs, with and
// without in-edges, called from a plain thread (Executor::Global()) and
// from inside the workers of pools of several sizes.
class SignatureDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SignatureDifferentialTest, EveryLevelBitIdenticalToSerial) {
  using testing_ladder::GraphKind;
  constexpr int kMaxDepth = 3;
  exec::Executor pool1(1), pool2(2), pool4(4), pool7(7);
  for (GraphKind kind :
       {GraphKind::kHeap, GraphKind::kMapped, GraphKind::kGrown}) {
    const hin::Graph graph =
        testing_ladder::LadderGraph(kind, GetParam(), /*num_users=*/600);
    for (bool in_edges : {false, true}) {
      const SignatureOptions options =
          testing_ladder::AllFeatures(graph, in_edges);
      const auto reference =
          testing_ladder::SerialSignatures(graph, options, kMaxDepth);
      for (int depth = 0; depth <= kMaxDepth; ++depth) {
        auto expect_serial = [&](const std::vector<std::vector<uint64_t>>&
                                     levels,
                                 const std::string& caller) {
          ASSERT_EQ(levels.size(), static_cast<size_t>(depth) + 1);
          for (int n = 0; n <= depth; ++n) {
            EXPECT_TRUE(levels[n] == reference[n])
                << testing_ladder::GraphKindName(kind)
                << " graph, in_edges=" << in_edges << ", depth " << depth
                << ", level " << n << ", called from " << caller;
          }
        };
        expect_serial(ComputeSignatures(graph, options, depth),
                      "the main thread");
        for (exec::Executor* pool : {&pool1, &pool2, &pool4, &pool7}) {
          expect_serial(testing_ladder::OnWorkerOf(
                            *pool,
                            [&] {
                              return ComputeSignatures(graph, options, depth);
                            }),
                        "a worker of a " +
                            std::to_string(pool->num_workers()) +
                            "-worker pool");
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignatureDifferentialTest,
                         testing::Values(1, 7, 42));

}  // namespace
}  // namespace hinpriv::core
