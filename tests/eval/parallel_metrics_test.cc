#include "eval/parallel_metrics.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "anon/kdd_anonymizer.h"
#include "exec/executor.h"
#include "hin/graph_builder.h"
#include "eval/experiment.h"
#include "util/cancellation.h"
#include "util/random.h"

namespace hinpriv::eval {
namespace {

ExperimentDataset MakeDataset(uint64_t seed) {
  synth::TqqConfig config;
  config.num_users = 6000;
  synth::PlantedTargetSpec spec;
  spec.target_size = 400;
  spec.density = 0.01;
  util::Rng rng(seed);
  anon::KddAnonymizer anonymizer;
  auto dataset = BuildExperimentDataset(config, spec, synth::GrowthConfig{},
                                        anonymizer, false, &rng);
  EXPECT_TRUE(dataset.ok());
  return std::move(dataset).value();
}

class ParallelMetricsTest : public testing::TestWithParam<size_t> {};

TEST_P(ParallelMetricsTest, MatchesSerialExactly) {
  const ExperimentDataset dataset = MakeDataset(1);
  core::DehinConfig config;
  config.match = core::DefaultTqqMatchOptions();
  core::Dehin dehin(&dataset.auxiliary, config);
  for (int n = 0; n <= 2; ++n) {
    const AttackMetrics serial =
        EvaluateAttack(dehin, dataset.target, dataset.ground_truth, n);
    const AttackMetrics parallel = EvaluateAttackParallel(
        dehin, dataset.target, dataset.ground_truth, n, GetParam());
    EXPECT_EQ(parallel.num_targets, serial.num_targets);
    EXPECT_EQ(parallel.num_evaluated, serial.num_evaluated);
    EXPECT_FALSE(parallel.interrupted);
    EXPECT_EQ(parallel.num_unique_correct, serial.num_unique_correct);
    EXPECT_EQ(parallel.num_containing_truth, serial.num_containing_truth);
    // Bit-identical, not just close: per-target results are reduced
    // serially in target order, the same association the serial evaluator
    // uses.
    EXPECT_EQ(parallel.precision, serial.precision);
    EXPECT_EQ(parallel.reduction_rate, serial.reduction_rate);
    EXPECT_EQ(parallel.mean_candidate_count, serial.mean_candidate_count);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelMetricsTest,
                         testing::Values(1, 2, 4, 8, 0 /* hardware */));

TEST(ParallelMetricsTest, EmptyTarget) {
  const ExperimentDataset dataset = MakeDataset(2);
  core::DehinConfig config;
  config.match = core::DefaultTqqMatchOptions();
  core::Dehin dehin(&dataset.auxiliary, config);
  hin::GraphBuilder builder(dataset.target.schema());
  auto empty = std::move(builder).Build();
  ASSERT_TRUE(empty.ok());
  const AttackMetrics metrics =
      EvaluateAttackParallel(dehin, empty.value(), {}, 1, 4);
  EXPECT_EQ(metrics.num_targets, 0u);
}

// Regression: a ground-truth vector shorter than the target used to send
// workers reading ground_truth[vt] past the end. Both evaluators must now
// refuse up front and report "nothing evaluated" instead.
TEST(ParallelMetricsTest, ShortGroundTruthIsRejected) {
  const ExperimentDataset dataset = MakeDataset(3);
  core::DehinConfig config;
  config.match = core::DefaultTqqMatchOptions();
  core::Dehin dehin(&dataset.auxiliary, config);
  ASSERT_GT(dataset.target.num_vertices(), 1u);
  std::vector<hin::VertexId> truncated(dataset.ground_truth.begin(),
                                       dataset.ground_truth.end() - 1);
  const AttackMetrics parallel =
      EvaluateAttackParallel(dehin, dataset.target, truncated, 1, 4);
  EXPECT_EQ(parallel.num_targets, 0u);
  EXPECT_EQ(parallel.num_unique_correct, 0u);
  const AttackMetrics serial =
      EvaluateAttack(dehin, dataset.target, truncated, 1);
  EXPECT_EQ(serial.num_targets, 0u);
}

// Regression: an exception escaping a worker used to std::terminate the
// process (uncaught throw on a std::thread). It must now propagate to the
// caller after all threads have been joined.
TEST(ParallelMetricsTest, WorkerExceptionPropagates) {
  const ExperimentDataset dataset = MakeDataset(4);
  core::DehinConfig config;
  config.match = core::DefaultTqqMatchOptions();
  config.entity_match_override =
      [](const hin::Graph&, hin::VertexId, const hin::Graph&,
         hin::VertexId) -> bool {
    throw std::runtime_error("injected matcher failure");
  };
  core::Dehin dehin(&dataset.auxiliary, config);
  EXPECT_THROW(EvaluateAttackParallel(dehin, dataset.target,
                                      dataset.ground_truth, 1, 4),
               std::runtime_error);
}

// The evaluator can run on a caller-provided executor (the service path)
// instead of sizing its own; results stay bit-identical to serial.
TEST(ParallelMetricsTest, ExplicitExecutorMatchesSerial) {
  const ExperimentDataset dataset = MakeDataset(5);
  core::DehinConfig config;
  config.match = core::DefaultTqqMatchOptions();
  core::Dehin dehin(&dataset.auxiliary, config);
  exec::Executor executor(3);
  ParallelEvalOptions options;
  options.executor = &executor;
  const AttackMetrics serial =
      EvaluateAttack(dehin, dataset.target, dataset.ground_truth, 1);
  const AttackMetrics parallel = EvaluateAttackParallel(
      dehin, dataset.target, dataset.ground_truth, 1, options);
  EXPECT_EQ(parallel.num_evaluated, serial.num_evaluated);
  EXPECT_EQ(parallel.precision, serial.precision);
  EXPECT_EQ(parallel.reduction_rate, serial.reduction_rate);
  EXPECT_EQ(parallel.mean_candidate_count, serial.mean_candidate_count);
}

// The shared loop hands each evaluated target to its caller exactly once,
// with the candidate set a serial Deanonymize returns. A run cancelled from
// inside the loop (deterministic, no timing) hands over exactly the prefix
// [0, returned) and nothing past it.
TEST(ParallelMetricsTest, AttackTargetsHandsEachEvaluatedTargetOnce) {
  const ExperimentDataset dataset = MakeDataset(9);
  core::DehinConfig config;
  config.match = core::DefaultTqqMatchOptions();
  core::Dehin dehin(&dataset.auxiliary, config);
  const size_t num_targets = dataset.target.num_vertices();
  std::vector<std::atomic<int>> calls(num_targets);
  std::vector<std::vector<hin::VertexId>> answers(num_targets);
  ParallelEvalOptions options;
  options.num_threads = 4;
  const size_t evaluated = AttackTargets(
      dehin, dataset.target, 1, options,
      [&](hin::VertexId vt, const std::vector<hin::VertexId>& candidates) {
        if (calls[vt].fetch_add(1) == 0) answers[vt] = candidates;
      });
  ASSERT_EQ(evaluated, num_targets);
  for (size_t i = 0; i < num_targets; ++i) {
    const auto vt = static_cast<hin::VertexId>(i);
    EXPECT_EQ(calls[i].load(), 1) << "target " << i;
    EXPECT_EQ(answers[i], dehin.Deanonymize(dataset.target, vt, 1))
        << "target " << i;
  }

  for (auto& count : calls) count.store(0);
  util::CancelToken cancel;
  options.cancel = &cancel;
  std::atomic<size_t> handed{0};
  const size_t prefix = AttackTargets(
      dehin, dataset.target, 1, options,
      [&](hin::VertexId vt, const std::vector<hin::VertexId>&) {
        calls[vt].fetch_add(1);
        if (handed.fetch_add(1) + 1 == num_targets / 4) cancel.Cancel();
      });
  // Only the targets already claimed when the token fired (at most one per
  // thread) finish past the quarter mark.
  EXPECT_GE(prefix, num_targets / 4);
  EXPECT_LT(prefix, num_targets);
  EXPECT_EQ(handed.load(), prefix);
  for (size_t i = 0; i < num_targets; ++i) {
    EXPECT_EQ(calls[i].load(), i < prefix ? 1 : 0) << "target " << i;
  }
}

// Recomputes the metrics the evaluator should report for the exact prefix
// [0, prefix) of the target range, with the serial reduction.
AttackMetrics ExpectedPrefixMetrics(const core::Dehin& dehin,
                                    const ExperimentDataset& dataset,
                                    int max_distance, size_t prefix) {
  AttackMetrics expected;
  expected.num_targets = dataset.target.num_vertices();
  const double aux_size =
      static_cast<double>(dehin.auxiliary().num_vertices());
  double reduction_sum = 0.0;
  double candidate_sum = 0.0;
  for (size_t i = 0; i < prefix; ++i) {
    const auto candidates = dehin.Deanonymize(
        dataset.target, static_cast<hin::VertexId>(i), max_distance);
    ++expected.num_evaluated;
    const bool contains = std::binary_search(
        candidates.begin(), candidates.end(), dataset.ground_truth[i]);
    if (contains) ++expected.num_containing_truth;
    if (contains && candidates.size() == 1) ++expected.num_unique_correct;
    reduction_sum += 1.0 - static_cast<double>(candidates.size()) / aux_size;
    candidate_sum += static_cast<double>(candidates.size());
  }
  expected.interrupted = expected.num_evaluated < expected.num_targets;
  const double n =
      static_cast<double>(std::max<size_t>(1, expected.num_evaluated));
  expected.precision = static_cast<double>(expected.num_unique_correct) / n;
  expected.reduction_rate = reduction_sum / n;
  expected.mean_candidate_count = candidate_sum / n;
  return expected;
}

// A token cancelled before the run starts claims nothing: zero targets
// evaluated, interrupted = true, all rates zero.
TEST(ParallelMetricsTest, PreCancelledTokenEvaluatesNothing) {
  const ExperimentDataset dataset = MakeDataset(6);
  core::DehinConfig config;
  config.match = core::DefaultTqqMatchOptions();
  core::Dehin dehin(&dataset.auxiliary, config);
  util::CancelToken cancel;
  cancel.Cancel();
  ParallelEvalOptions options;
  options.num_threads = 4;
  options.cancel = &cancel;
  const AttackMetrics metrics = EvaluateAttackParallel(
      dehin, dataset.target, dataset.ground_truth, 1, options);
  EXPECT_EQ(metrics.num_evaluated, 0u);
  EXPECT_TRUE(metrics.interrupted);
  EXPECT_EQ(metrics.num_targets, dataset.target.num_vertices());
  EXPECT_EQ(metrics.precision, 0.0);
}

// A token fired mid-run stops target claiming; whatever prefix was
// evaluated, the reported metrics must equal a serial recomputation over
// exactly that prefix — this pins both the "executed set is a contiguous
// prefix" contract and the prefix-rate reduction.
TEST(ParallelMetricsTest, MidRunCancelReportsExactEvaluatedPrefix) {
  const ExperimentDataset dataset = MakeDataset(7);
  core::DehinConfig config;
  config.match = core::DefaultTqqMatchOptions();
  core::Dehin dehin(&dataset.auxiliary, config);
  util::CancelToken cancel;
  ParallelEvalOptions options;
  options.num_threads = 4;
  options.cancel = &cancel;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancel.Cancel();
  });
  const AttackMetrics metrics = EvaluateAttackParallel(
      dehin, dataset.target, dataset.ground_truth, 1, options);
  canceller.join();
  ASSERT_LE(metrics.num_evaluated, static_cast<size_t>(metrics.num_targets));
  EXPECT_EQ(metrics.interrupted,
            metrics.num_evaluated < metrics.num_targets);
  const AttackMetrics expected =
      ExpectedPrefixMetrics(dehin, dataset, 1, metrics.num_evaluated);
  EXPECT_EQ(metrics.num_containing_truth, expected.num_containing_truth);
  EXPECT_EQ(metrics.num_unique_correct, expected.num_unique_correct);
  EXPECT_EQ(metrics.precision, expected.precision);
  EXPECT_EQ(metrics.reduction_rate, expected.reduction_rate);
  EXPECT_EQ(metrics.mean_candidate_count, expected.mean_candidate_count);
}

// A cancelled parallel run must not leave partial state in the shared
// MatchCache: a full evaluation on the same Dehin afterwards has to match
// a fresh instance exactly.
TEST(ParallelMetricsTest, CancelledRunDoesNotPoisonMatchCache) {
  const ExperimentDataset dataset = MakeDataset(8);
  core::DehinConfig config;
  config.match = core::DefaultTqqMatchOptions();
  config.use_shared_cache = true;
  core::Dehin dehin(&dataset.auxiliary, config);

  util::CancelToken cancel;
  ParallelEvalOptions options;
  options.num_threads = 4;
  options.cancel = &cancel;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    cancel.Cancel();
  });
  (void)EvaluateAttackParallel(dehin, dataset.target, dataset.ground_truth, 2,
                               options);
  canceller.join();

  const AttackMetrics after =
      EvaluateAttack(dehin, dataset.target, dataset.ground_truth, 2);
  core::Dehin fresh(&dataset.auxiliary, config);
  const AttackMetrics reference =
      EvaluateAttack(fresh, dataset.target, dataset.ground_truth, 2);
  EXPECT_EQ(after.num_unique_correct, reference.num_unique_correct);
  EXPECT_EQ(after.num_containing_truth, reference.num_containing_truth);
  EXPECT_EQ(after.precision, reference.precision);
  EXPECT_EQ(after.reduction_rate, reference.reduction_rate);
  EXPECT_EQ(after.mean_candidate_count, reference.mean_candidate_count);
}

}  // namespace
}  // namespace hinpriv::eval
