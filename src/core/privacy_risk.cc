#include "core/privacy_risk.h"

#include <cmath>

namespace hinpriv::core {

std::vector<double> PerTupleRisk(std::span<const uint64_t> values) {
  return PerTupleRisk(values, ValueCounts(values));
}

std::vector<double> PerTupleRisk(std::span<const uint64_t> values,
                                 const ValueCounts& counts) {
  std::vector<double> risks;
  risks.reserve(values.size());
  for (uint64_t v : values) {
    risks.push_back(1.0 / static_cast<double>(counts.count(v)));
  }
  return risks;
}

util::Result<double> DatasetRiskWithLoss(std::span<const uint64_t> values,
                                         std::span<const double> losses) {
  if (values.size() != losses.size()) {
    return util::Status::InvalidArgument(
        "values and losses must have equal length");
  }
  if (values.empty()) {
    return util::Status::InvalidArgument("empty dataset has no defined risk");
  }
  const ValueCounts counts(values);
  double total = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (losses[i] < 0.0 || losses[i] > 1.0) {
      return util::Status::InvalidArgument("loss values must lie in [0, 1]");
    }
    total += losses[i] / static_cast<double>(counts.count(values[i]));
  }
  return total / static_cast<double>(values.size());
}

double DatasetRisk(std::span<const uint64_t> values) {
  if (values.empty()) return 0.0;
  // Theorem 1: with all losses 1, sum_i 1/k(t_i) counts each distinct value
  // exactly once, so R(T) = C(T)/N.
  return static_cast<double>(CountDistinct(values)) /
         static_cast<double>(values.size());
}

double ExpectedRisk(size_t cardinality, size_t num_tuples, double mean_loss) {
  if (num_tuples == 0) return 0.0;
  return mean_loss * static_cast<double>(cardinality) /
         static_cast<double>(num_tuples);
}

std::vector<NetworkRiskResult> NetworkPrivacyRisk(
    const hin::Graph& graph, const SignatureOptions& options,
    int max_distance) {
  const auto signatures = ComputeSignatures(graph, options, max_distance);
  std::vector<NetworkRiskResult> results;
  results.reserve(signatures.size());
  for (int n = 0; n < static_cast<int>(signatures.size()); ++n) {
    NetworkRiskResult r;
    r.max_distance = n;
    r.cardinality = CountDistinct(signatures[n]);
    r.risk = graph.num_vertices() == 0
                 ? 0.0
                 : static_cast<double>(r.cardinality) /
                       static_cast<double>(graph.num_vertices());
    results.push_back(r);
  }
  return results;
}

double LogCardinalityLowerBound(int n, double log_entity_cardinality,
                                double log_link_cardinality) {
  return std::pow(2.0, n) *
         (log_entity_cardinality + n * log_link_cardinality);
}

double LogCardinalityUpperBound(int n, double log_entity_cardinality,
                                double log_link_cardinality,
                                size_t num_entities) {
  return std::pow(static_cast<double>(num_entities), n) *
         (log_entity_cardinality + n * log_link_cardinality);
}

}  // namespace hinpriv::core
