#ifndef HINPRIV_EVAL_METRICS_H_
#define HINPRIV_EVAL_METRICS_H_

#include <cstddef>
#include <vector>

#include "core/dehin.h"
#include "hin/graph.h"

namespace hinpriv::eval {

// The two Section 6 metrics plus supporting counts.
//
//   Precision      = (1/|V'|) * sum_i s(v'_i), where s = 1 iff the
//                    candidate set is exactly {true counterpart}.
//   Reduction rate = (1/|V'|) * sum_i (1 - |C(v'_i)| / |V|).
struct AttackMetrics {
  double precision = 0.0;
  double reduction_rate = 0.0;
  size_t num_targets = 0;
  // Targets actually scored. Equals num_targets except when an evaluation
  // was interrupted by a cancel token (ParallelEvalOptions::cancel), in
  // which case the rates below are over the evaluated prefix only.
  size_t num_evaluated = 0;
  // True when a cancel token stopped the evaluation before every target
  // was scored.
  bool interrupted = false;
  // Targets whose candidate set was a unique, correct match.
  size_t num_unique_correct = 0;
  // Targets whose candidate set contains the true counterpart (soundness
  // indicator: 100% under growth-consistent anonymization without edge
  // deletion).
  size_t num_containing_truth = 0;
  double mean_candidate_count = 0.0;
  // Acceleration-layer counters accumulated by the Dehin over this
  // evaluation (delta of Dehin::stats() around the run): degree-check
  // reject rate and match-cache hit rate for observability and the bench
  // JSON.
  core::DehinStats dehin_stats;
};

// Runs dehin.Deanonymize on every vertex of `target` at `max_distance` and
// scores against ground_truth (target vertex i's true auxiliary vertex).
AttackMetrics EvaluateAttack(const core::Dehin& dehin,
                             const hin::Graph& target,
                             const std::vector<hin::VertexId>& ground_truth,
                             int max_distance);

}  // namespace hinpriv::eval

#endif  // HINPRIV_EVAL_METRICS_H_
