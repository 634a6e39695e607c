#ifndef HINPRIV_EVAL_PARALLEL_METRICS_H_
#define HINPRIV_EVAL_PARALLEL_METRICS_H_

#include <cstddef>

#include "eval/metrics.h"
#include "util/cancellation.h"

namespace hinpriv::exec {
class Executor;
}  // namespace hinpriv::exec

namespace hinpriv::eval {

// Knobs for EvaluateAttackParallel. Worker threads always record spans
// (the executor's "exec/task", plus the per-call "dehin/deanonymize"
// spans) when obs tracing is on; the heartbeat is opt-in because it
// writes to stderr.
struct ParallelEvalOptions {
  // Pool to run on; borrowed, not owned. nullptr picks one from
  // num_threads below.
  exec::Executor* executor = nullptr;
  // Only read when `executor` is nullptr: 0 selects the process-wide
  // exec::Executor::Global() pool; any other value spins up a transient
  // pool of exec::ResolveThreads(num_threads) workers, clamped to the
  // target count (more workers than targets could never all claim work).
  size_t num_threads = 0;
  // > 0: any worker that notices this many seconds elapsed since the last
  // beat prints one "attack progress: done/total" line to stderr and
  // updates the "eval/progress" gauge — the liveness signal for
  // multi-minute runs. 0 disables.
  double heartbeat_seconds = 0.0;
  // Optional stop signal (e.g. service::ShutdownToken() wired to
  // SIGINT/SIGTERM). Polled before every target claim: the targets being
  // scored finish cleanly, no new ones are claimed, and the returned
  // metrics cover exactly the evaluated prefix [0, num_evaluated)
  // (interrupted = true).
  const util::CancelToken* cancel = nullptr;
};

// Multi-threaded EvaluateAttack on an exec::Executor pool. Targets
// are claimed dynamically one at a time (grain = 1), so a handful of
// heavy, degree-skewed targets rebalance across workers instead of
// stalling a static slice. Dehin::Deanonymize is thread-safe; with the
// shared match cache enabled (DehinConfig::use_shared_cache) workers
// additionally reuse each other's LinkMatch sub-results.
//
// Per-target results land in per-target slots and are reduced serially
// in target order afterwards, so the returned metrics are bit-identical
// to the serial EvaluateAttack (verified by the unit tests). Exceptions
// thrown by any worker propagate to the caller.
AttackMetrics EvaluateAttackParallel(
    const core::Dehin& dehin, const hin::Graph& target,
    const std::vector<hin::VertexId>& ground_truth, int max_distance,
    const ParallelEvalOptions& options);

// Compatibility shim: `num_threads` == 0 picks the shared global pool.
inline AttackMetrics EvaluateAttackParallel(
    const core::Dehin& dehin, const hin::Graph& target,
    const std::vector<hin::VertexId>& ground_truth, int max_distance,
    size_t num_threads = 0) {
  ParallelEvalOptions options;
  options.num_threads = num_threads;
  return EvaluateAttackParallel(dehin, target, ground_truth, max_distance,
                                options);
}

}  // namespace hinpriv::eval

#endif  // HINPRIV_EVAL_PARALLEL_METRICS_H_
