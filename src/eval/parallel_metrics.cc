#include "eval/parallel_metrics.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "exec/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hinpriv::eval {

size_t AttackTargets(const core::Dehin& dehin, const hin::Graph& target,
                     int max_distance, const ParallelEvalOptions& options,
                     const TargetCandidatesFn& on_target) {
  HINPRIV_SPAN("eval/attack_parallel");
  const size_t num_targets = target.num_vertices();
  if (num_targets == 0) return 0;

  // Executor selection: explicit handle, else the shared global pool
  // (num_threads == 0), else a transient pool of the requested size —
  // clamped to the target count, since extra workers could never claim a
  // target.
  exec::Executor* executor = options.executor;
  std::unique_ptr<exec::Executor> transient;
  if (executor == nullptr) {
    if (options.num_threads == 0) {
      executor = &exec::Executor::Global();
    } else {
      transient = std::make_unique<exec::Executor>(std::min(
          exec::ResolveThreads(options.num_threads), num_targets));
      executor = transient.get();
    }
  }

  // Heartbeat state shared by the workers: whichever worker first notices
  // the interval elapsed claims the beat with a CAS and prints one line,
  // so long runs emit a liveness signal without a dedicated reporter
  // thread.
  using Clock = std::chrono::steady_clock;
  const int64_t heartbeat_ns =
      static_cast<int64_t>(options.heartbeat_seconds * 1e9);
  const Clock::time_point run_start = Clock::now();
  std::atomic<int64_t> last_beat_ns{0};
  std::atomic<size_t> completed{0};
  obs::Gauge* progress_gauge =
      obs::MetricsRegistry::Global().GetGauge("eval/progress");
  progress_gauge->Set(0.0);

  exec::ParallelForOptions pf_options;
  // Grain of one target: the whole point of dynamic claiming is that a
  // degree-skewed straggler target occupies one worker while the rest of
  // the pool drains everything else.
  pf_options.grain = 1;
  pf_options.cancel = options.cancel;
  const exec::ParallelForResult run = executor->ParallelFor(
      num_targets,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const auto vt = static_cast<hin::VertexId>(i);
          on_target(vt, dehin.Deanonymize(target, vt, max_distance));
          const size_t done =
              completed.fetch_add(1, std::memory_order_relaxed) + 1;
          if (heartbeat_ns > 0) {
            const int64_t elapsed_ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - run_start)
                    .count();
            int64_t last = last_beat_ns.load(std::memory_order_relaxed);
            if (elapsed_ns - last >= heartbeat_ns &&
                last_beat_ns.compare_exchange_strong(
                    last, elapsed_ns, std::memory_order_relaxed)) {
              const double fraction =
                  static_cast<double>(done) / static_cast<double>(num_targets);
              progress_gauge->Set(fraction);
              std::fprintf(stderr,
                           "[hinpriv] attack progress: %zu/%zu targets "
                           "(%.1f%%), %.1fs elapsed\n",
                           done, num_targets, 100.0 * fraction,
                           static_cast<double>(elapsed_ns) / 1e9);
            }
          }
        }
      },
      pf_options);
  progress_gauge->Set(1.0);
  return run.completed;
}

AttackMetrics EvaluateAttackParallel(
    const core::Dehin& dehin, const hin::Graph& target,
    const std::vector<hin::VertexId>& ground_truth, int max_distance,
    const ParallelEvalOptions& options) {
  AttackMetrics metrics;
  metrics.num_targets = target.num_vertices();
  if (metrics.num_targets == 0) return metrics;
  // Mismatched inputs would read ground_truth[vt] out of bounds in the
  // workers; validate up front (same contract as the serial
  // EvaluateAttack) and report "nothing evaluated".
  if (ground_truth.size() < target.num_vertices()) {
    std::fprintf(stderr,
                 "EvaluateAttackParallel: ground truth covers %zu of %zu "
                 "target vertices; refusing to evaluate\n",
                 ground_truth.size(),
                 static_cast<size_t>(target.num_vertices()));
    return AttackMetrics{};
  }
  const core::DehinStats stats_before = dehin.stats();

  // Per-target result slots. Workers fill disjoint indices; the serial
  // reduction below walks them in target order, so the floating-point
  // sums are bit-identical to the serial EvaluateAttack.
  std::vector<size_t> candidate_counts(metrics.num_targets, 0);
  std::vector<uint8_t> contains_truth(metrics.num_targets, 0);
  metrics.num_evaluated = AttackTargets(
      dehin, target, max_distance, options,
      [&](hin::VertexId vt, const std::vector<hin::VertexId>& candidates) {
        candidate_counts[vt] = candidates.size();
        contains_truth[vt] = std::binary_search(candidates.begin(),
                                                candidates.end(),
                                                ground_truth[vt])
                                 ? 1
                                 : 0;
      });

  // Serial reduction over the evaluated prefix, in target order — the
  // same association the serial evaluator uses.
  const double aux_size =
      static_cast<double>(dehin.auxiliary().num_vertices());
  double reduction_sum = 0.0;
  double candidate_sum = 0.0;
  for (size_t i = 0; i < metrics.num_evaluated; ++i) {
    if (contains_truth[i]) ++metrics.num_containing_truth;
    if (contains_truth[i] && candidate_counts[i] == 1) {
      ++metrics.num_unique_correct;
    }
    reduction_sum += 1.0 - static_cast<double>(candidate_counts[i]) / aux_size;
    candidate_sum += static_cast<double>(candidate_counts[i]);
  }
  metrics.interrupted = metrics.num_evaluated < metrics.num_targets;
  // Rates over what was actually scored, so an interrupted run reports
  // the evaluated prefix rather than diluting by unvisited targets.
  const double n =
      static_cast<double>(std::max<size_t>(1, metrics.num_evaluated));
  metrics.precision = static_cast<double>(metrics.num_unique_correct) / n;
  metrics.reduction_rate = reduction_sum / n;
  metrics.mean_candidate_count = candidate_sum / n;
  metrics.dehin_stats = dehin.stats() - stats_before;
  return metrics;
}

}  // namespace hinpriv::eval
