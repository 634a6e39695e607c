#include "core/privacy_risk.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/value_counts.h"
#include "exec/executor.h"
#include "hin/graph_builder.h"
#include "hin/tqq_schema.h"
#include "serial_signatures.h"
#include "synth/tqq_generator.h"
#include "util/random.h"

namespace hinpriv::core {
namespace {

TEST(PerTupleRiskTest, MathematicalFactorIsOneOverK) {
  // Values {a, a, b}: k(a) = 2, k(b) = 1.
  const std::vector<uint64_t> values = {7, 7, 9};
  const auto risks = PerTupleRisk(values);
  ASSERT_EQ(risks.size(), 3u);
  EXPECT_DOUBLE_EQ(risks[0], 0.5);
  EXPECT_DOUBLE_EQ(risks[1], 0.5);
  EXPECT_DOUBLE_EQ(risks[2], 1.0);
}

TEST(PerTupleRiskTest, FlatCountsMatchSortedCounts) {
  // 20k values over 3k distinct ones, with 0 and UINT64_MAX among them.
  util::Rng rng(13);
  std::vector<uint64_t> values;
  for (int i = 0; i < 20000; ++i) values.push_back(rng.UniformU64(3000));
  values.push_back(0);
  values.push_back(std::numeric_limits<uint64_t>::max());
  values.push_back(std::numeric_limits<uint64_t>::max());
  std::vector<uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());

  const ValueCounts counts(values);
  EXPECT_EQ(counts.num_distinct(),
            testing_ladder::SortUniqueCount(values));
  const std::vector<double> risks = PerTupleRisk(values);
  EXPECT_EQ(PerTupleRisk(values, counts), risks);
  ASSERT_EQ(risks.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const auto [lo, hi] =
        std::equal_range(sorted.begin(), sorted.end(), values[i]);
    const size_t k = static_cast<size_t>(hi - lo);
    ASSERT_EQ(counts.count(values[i]), k) << values[i];
    ASSERT_EQ(risks[i], 1.0 / static_cast<double>(k)) << values[i];
  }
  EXPECT_EQ(counts.count(3000), 0u);  // never drawn
}

TEST(DatasetRiskTest, Theorem1CardinalityOverN) {
  EXPECT_DOUBLE_EQ(DatasetRisk(std::vector<uint64_t>{1, 1, 1, 1}), 0.25);
  EXPECT_DOUBLE_EQ(DatasetRisk(std::vector<uint64_t>{1, 2, 3, 4}), 1.0);
  EXPECT_DOUBLE_EQ(DatasetRisk(std::vector<uint64_t>{1, 1, 2, 2}), 0.5);
  EXPECT_DOUBLE_EQ(DatasetRisk(std::vector<uint64_t>{}), 0.0);
}

// The Section 1.2 / Section 4.2 worked example. T1000: 1000 tuples of one
// value => R = 0.001. T2: 500 distinct pairs => R = 0.5. After inserting a
// unique tuple t*: R(T1000*) = 2/1001 and R(T2*) = 501/1001.
TEST(DatasetRiskTest, PaperT1000AndT2Example) {
  std::vector<uint64_t> t1000(1000, 42);
  EXPECT_DOUBLE_EQ(DatasetRisk(t1000), 0.001);

  std::vector<uint64_t> t2;
  for (uint64_t pair = 0; pair < 500; ++pair) {
    t2.push_back(pair);
    t2.push_back(pair);
  }
  EXPECT_DOUBLE_EQ(DatasetRisk(t2), 0.5);

  t1000.push_back(4242);  // the injected unique t*
  EXPECT_DOUBLE_EQ(DatasetRisk(t1000), 2.0 / 1001.0);
  t2.push_back(4242);
  EXPECT_DOUBLE_EQ(DatasetRisk(t2), 501.0 / 1001.0);
}

TEST(DatasetRiskTest, BoundsFromTheorem1) {
  // R(T) lies in [1/N, 1] for any nonempty dataset.
  util::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint64_t> values;
    const size_t n = 1 + rng.UniformU64(200);
    for (size_t i = 0; i < n; ++i) {
      values.push_back(rng.UniformU64(1 + rng.UniformU64(50)));
    }
    const double risk = DatasetRisk(values);
    EXPECT_GE(risk, 1.0 / static_cast<double>(n));
    EXPECT_LE(risk, 1.0);
  }
}

TEST(DatasetRiskWithLossTest, WeightsPerTupleRisk) {
  // Values {a, a}: each 1/k = 0.5. Losses {1, 0} => R = (0.5 + 0)/2.
  const std::vector<uint64_t> values = {1, 1};
  const std::vector<double> losses = {1.0, 0.0};
  auto risk = DatasetRiskWithLoss(values, losses);
  ASSERT_TRUE(risk.ok());
  EXPECT_DOUBLE_EQ(risk.value(), 0.25);
}

TEST(DatasetRiskWithLossTest, AllOnesMatchesTheorem1) {
  const std::vector<uint64_t> values = {1, 2, 2, 3};
  const std::vector<double> losses(4, 1.0);
  auto risk = DatasetRiskWithLoss(values, losses);
  ASSERT_TRUE(risk.ok());
  EXPECT_DOUBLE_EQ(risk.value(), DatasetRisk(values));
}

TEST(DatasetRiskWithLossTest, ValidatesInput) {
  EXPECT_FALSE(
      DatasetRiskWithLoss(std::vector<uint64_t>{1}, std::vector<double>{})
          .ok());
  EXPECT_FALSE(DatasetRiskWithLoss(std::vector<uint64_t>{},
                                   std::vector<double>{})
                   .ok());
  EXPECT_FALSE(DatasetRiskWithLoss(std::vector<uint64_t>{1},
                                   std::vector<double>{1.5})
                   .ok());
  EXPECT_FALSE(DatasetRiskWithLoss(std::vector<uint64_t>{1},
                                   std::vector<double>{-0.5})
                   .ok());
}

TEST(ExpectedRiskTest, Lemma1Estimator) {
  // E[R(T)] = mu * C / N; with mu = 0.5 (uniform losses), C = 100, N = 1000.
  EXPECT_DOUBLE_EQ(ExpectedRisk(100, 1000, 0.5), 0.05);
  EXPECT_DOUBLE_EQ(ExpectedRisk(100, 0, 0.5), 0.0);
}

TEST(NetworkPrivacyRiskTest, RiskLadderOnHandGraph) {
  hin::GraphBuilder builder(hin::TqqTargetSchema());
  builder.AddVertices(0, 4);
  // All same tag count; 0 mentions 2, 1 mentions 3 with a different
  // strength: risk 0.25 at distance 0, 0.75 at distance 1 (vertices 2 and 3
  // stay identical).
  ASSERT_TRUE(builder.AddEdge(0, 2, hin::kMentionLink, 1).ok());
  ASSERT_TRUE(builder.AddEdge(1, 3, hin::kMentionLink, 2).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());

  SignatureOptions options;
  options.attributes = {hin::kTagCountAttr};
  options.link_types = {hin::kMentionLink};
  const auto ladder = NetworkPrivacyRisk(graph.value(), options, 1);
  ASSERT_EQ(ladder.size(), 2u);
  EXPECT_EQ(ladder[0].max_distance, 0);
  EXPECT_EQ(ladder[0].cardinality, 1u);
  EXPECT_DOUBLE_EQ(ladder[0].risk, 0.25);
  EXPECT_EQ(ladder[1].cardinality, 3u);
  EXPECT_DOUBLE_EQ(ladder[1].risk, 0.75);
}

TEST(NetworkPrivacyRiskTest, MoreLinkTypesNeverLowerRisk) {
  synth::TqqConfig config;
  config.num_users = 500;
  util::Rng rng(5);
  auto graph = synth::GenerateTqqNetwork(config, &rng);
  ASSERT_TRUE(graph.ok());

  SignatureOptions follow_only;
  follow_only.attributes = {hin::kTagCountAttr};
  follow_only.link_types = {hin::kFollowLink};
  SignatureOptions all;
  all.attributes = {hin::kTagCountAttr};
  all.link_types = {hin::kFollowLink, hin::kMentionLink, hin::kRetweetLink,
                    hin::kCommentLink};

  const auto risk_one = NetworkPrivacyRisk(graph.value(), follow_only, 2);
  const auto risk_all = NetworkPrivacyRisk(graph.value(), all, 2);
  for (size_t n = 0; n < risk_one.size(); ++n) {
    EXPECT_GE(risk_all[n].risk, risk_one[n].risk) << "distance " << n;
  }
}

// Every rung of the parallel ladder counts its level exactly: C(T)_n is a
// sort+unique count over the serial reference level, whatever the graph's
// storage and whichever thread or pool runs the ladder.
class NetworkPrivacyRiskDifferentialTest
    : public testing::TestWithParam<uint64_t> {};

TEST_P(NetworkPrivacyRiskDifferentialTest, CardinalitiesMatchSerialLevels) {
  using testing_ladder::GraphKind;
  constexpr int kMaxDepth = 3;
  exec::Executor pool1(1), pool2(2), pool4(4), pool7(7);
  for (GraphKind kind :
       {GraphKind::kHeap, GraphKind::kMapped, GraphKind::kGrown}) {
    const hin::Graph graph =
        testing_ladder::LadderGraph(kind, GetParam(), /*num_users=*/600);
    const double num_vertices = static_cast<double>(graph.num_vertices());
    for (bool in_edges : {false, true}) {
      const SignatureOptions options =
          testing_ladder::AllFeatures(graph, in_edges);
      const auto reference =
          testing_ladder::SerialSignatures(graph, options, kMaxDepth);
      auto expect_exact = [&](const std::vector<NetworkRiskResult>& ladder,
                              const std::string& caller) {
        ASSERT_EQ(ladder.size(), static_cast<size_t>(kMaxDepth) + 1);
        for (int n = 0; n <= kMaxDepth; ++n) {
          const size_t expected =
              testing_ladder::SortUniqueCount(reference[n]);
          EXPECT_EQ(ladder[n].max_distance, n);
          EXPECT_EQ(ladder[n].cardinality, expected)
              << testing_ladder::GraphKindName(kind)
              << " graph, in_edges=" << in_edges << ", distance " << n
              << ", called from " << caller;
          EXPECT_EQ(ladder[n].risk,
                    static_cast<double>(expected) / num_vertices);
        }
      };
      expect_exact(NetworkPrivacyRisk(graph, options, kMaxDepth),
                   "the main thread");
      for (exec::Executor* pool : {&pool1, &pool2, &pool4, &pool7}) {
        expect_exact(testing_ladder::OnWorkerOf(
                         *pool,
                         [&] {
                           return NetworkPrivacyRisk(graph, options,
                                                     kMaxDepth);
                         }),
                     "a worker of a " + std::to_string(pool->num_workers()) +
                         "-worker pool");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkPrivacyRiskDifferentialTest,
                         testing::Values(1, 7, 42));

TEST(TheoremTwoBoundsTest, LowerBoundGrowsDoubleExponentially) {
  // log LB at distance n is 2^n * (log C_E + n log C_L): the ratio of
  // consecutive log-bounds must exceed 2 (the "faster than double
  // exponential" claim of Theorem 2).
  const double log_ce = std::log(11.0);
  const double log_cl = std::log(30.0);
  double prev = LogCardinalityLowerBound(1, log_ce, log_cl);
  for (int n = 2; n <= 6; ++n) {
    const double current = LogCardinalityLowerBound(n, log_ce, log_cl);
    EXPECT_GT(current, 2.0 * prev) << n;
    prev = current;
  }
}

TEST(TheoremTwoBoundsTest, UpperBoundDominatesLowerBound) {
  const double log_ce = std::log(11.0);
  const double log_cl = std::log(30.0);
  for (int n = 1; n <= 4; ++n) {
    EXPECT_GE(LogCardinalityUpperBound(n, log_ce, log_cl, 1000),
              LogCardinalityLowerBound(n, log_ce, log_cl));
  }
}

TEST(TheoremTwoBoundsTest, HeterogeneityTermRaisesTheBound) {
  // C(L*)^n is what pushes the bound beyond plain double-exponential
  // (Section 4.3): with zero link cardinality term the bound is flat 2^n.
  const double log_ce = std::log(11.0);
  for (int n = 1; n <= 4; ++n) {
    EXPECT_GT(LogCardinalityLowerBound(n, log_ce, std::log(30.0)),
              LogCardinalityLowerBound(n, log_ce, 0.0));
  }
}

}  // namespace
}  // namespace hinpriv::core
