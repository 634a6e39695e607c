#ifndef HINPRIV_EVAL_EXPERIMENT_H_
#define HINPRIV_EVAL_EXPERIMENT_H_

#include <string>
#include <vector>

#include "anon/anonymizer.h"
#include "core/dehin.h"
#include "eval/metrics.h"
#include "hin/graph.h"
#include "synth/planted_target.h"
#include "synth/tqq_config.h"
#include "util/random.h"
#include "util/status.h"

namespace hinpriv::eval {

// A fully assembled Section 6 experiment instance: the adversary's
// auxiliary network, the published (anonymized, optionally DeHIN-
// reconfiguration-stripped) target graph, and the ground-truth mapping used
// only for scoring.
struct ExperimentDataset {
  hin::Graph auxiliary;
  hin::Graph target;
  // ground_truth[target vertex] = true auxiliary vertex.
  std::vector<hin::VertexId> ground_truth;
  // Density of the pre-anonymization target graph (Equation 4).
  double target_density = 0.0;
};

// Pipeline: synthesize base + planted target (synth::BuildPlantedDataset),
// publish through `anonymizer`, optionally apply the Section 6.2
// reconfiguration (strip majority-strength links from the published graph),
// and compose the ground-truth mapping through the anonymizer's
// permutation.
util::Result<ExperimentDataset> BuildExperimentDataset(
    const synth::TqqConfig& config, const synth::PlantedTargetSpec& spec,
    const synth::GrowthConfig& growth, const anon::Anonymizer& anonymizer,
    bool strip_majority, util::Rng* rng);

// One scored attack run plus its wall time: the metrics carry the
// acceleration-layer counters (degree-check rejects, cache hit rate), so a
// bench row can report quality, cost, and the layers' contribution from a
// single call.
struct AttackEvaluation {
  AttackMetrics metrics;
  double seconds = 0.0;
};

// Times EvaluateAttack (num_threads <= 1) or EvaluateAttackParallel over
// the dataset's target graph. The Dehin's shared cache (if enabled)
// persists inside `dehin`, so consecutive calls at increasing distance
// reuse lower-depth sub-results the way one EvaluateAttackParallel run
// shares them across targets.
AttackEvaluation TimedEvaluateAttack(const core::Dehin& dehin,
                                     const ExperimentDataset& dataset,
                                     int max_distance, size_t num_threads = 1);

// All 15 nonempty subsets of the four t.qq link types in the paper's
// Table 1 / Table 3 row order: f, m, c, r, f-m, f-c, f-r, m-c, m-r, c-r,
// f-m-c, f-m-r, f-c-r, m-c-r, f-m-c-r.
struct LinkTypeSubset {
  std::string label;
  std::vector<hin::LinkTypeId> link_types;
};
std::vector<LinkTypeSubset> TqqLinkTypeSubsets();

}  // namespace hinpriv::eval

#endif  // HINPRIV_EVAL_EXPERIMENT_H_
