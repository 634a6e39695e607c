#ifndef HINPRIV_CORE_PRIVACY_RISK_H_
#define HINPRIV_CORE_PRIVACY_RISK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/signature.h"
#include "core/value_counts.h"
#include "hin/graph.h"
#include "util/status.h"

namespace hinpriv::core {

// Privacy risk of one tuple and of a whole dataset (Definitions 7-8):
//
//   R(t_i) = l(t_i) / k(t_i)        R(T) = (1/N) sum_i R(t_i)
//
// where k(t_i) is the number of tuples sharing t_i's (combined) value and
// l(t_i) in [0,1] is the tuple's loss function (social factor). With all
// losses 1, Theorem 1 gives R(T) = C(T)/N with C(T) the number of distinct
// values.

// Per-tuple mathematical factor 1/k(t_i) for each value.
std::vector<double> PerTupleRisk(std::span<const uint64_t> values);

// The same, from `counts` already taken over `values`, for callers that
// also read C(T) off the counts.
std::vector<double> PerTupleRisk(std::span<const uint64_t> values,
                                 const ValueCounts& counts);

// Dataset risk with explicit loss functions (Definition 8). `losses` must
// have the same length as `values` with entries in [0, 1].
util::Result<double> DatasetRiskWithLoss(std::span<const uint64_t> values,
                                         std::span<const double> losses);

// Dataset risk with all losses set to 1 (Theorem 1): C(T)/N.
double DatasetRisk(std::span<const uint64_t> values);

// Lemma 1 estimator: expected dataset risk when losses are independent of
// 1/k with mean `mean_loss`:  E[R(T)] = mean_loss * C(T) / N.
double ExpectedRisk(size_t cardinality, size_t num_tuples, double mean_loss);

// One row of the Section 4.3 empirical analysis: the risk of a network's
// entities when their attribute-metapath-combined values use neighbors up
// to max distance n.
struct NetworkRiskResult {
  int max_distance = 0;
  size_t cardinality = 0;  // C(T_G*)_n observed
  double risk = 0.0;       // cardinality / num entities
};

// Computes the risk ladder for n = 0..max_distance over one graph using
// the given signature configuration (Table 1 / Figure 7 engine).
std::vector<NetworkRiskResult> NetworkPrivacyRisk(
    const hin::Graph& graph, const SignatureOptions& options,
    int max_distance);

// Theorem 2 bound exponents, in log-space to avoid overflow: the log of
// the lower/upper bounds of the expected network cardinality at distance n
// given the entity cardinality C(E*) and heterogeneous link cardinality
// C(L*):
//   log LB = 2^n     * (log C(E*) + n * log C(L*))        (Equation 2)
//   log UB = N^n     * (log C(E*) + n * log C(L*))        (Equation 3)
// Used by tests/benches to exhibit the faster-than-double-exponential
// growth the paper proves.
double LogCardinalityLowerBound(int n, double log_entity_cardinality,
                                double log_link_cardinality);
double LogCardinalityUpperBound(int n, double log_entity_cardinality,
                                double log_link_cardinality,
                                size_t num_entities);

}  // namespace hinpriv::core

#endif  // HINPRIV_CORE_PRIVACY_RISK_H_
