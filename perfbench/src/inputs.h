// Inputs generated from the seed, and the reference answers every
// workload checks the program against.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/dehin.h"
#include "eval/experiment.h"
#include "hin/graph.h"
#include "service/json.h"
#include "util/status.h"

namespace perfbench {

// An attack answer as the service encodes it: the first 1,024 candidates
// plus the exact total.
struct Answer {
  std::vector<int64_t> head;
  size_t total = 0;
  bool operator==(const Answer&) const = default;
};
// Indexed by target vertex.
using Answers = std::vector<Answer>;

Answer Encode(const std::vector<hinpriv::hin::VertexId>& candidates);
// Decodes an attack_one result payload; nullopt when it is malformed.
std::optional<Answer> Decode(const hinpriv::service::JsonValue& result);

// The Section 6 attack (growth-aware t.qq matchers) at depth n.
hinpriv::core::DehinConfig AttackConfig(int max_distance);

// Every target vertex's answer from `dehin`, a Dehin of the benchmark's
// own, separate from whatever instance the program under test runs.
Answers ReferenceAnswers(const hinpriv::core::Dehin& dehin,
                         const hinpriv::hin::Graph& target, int max_distance);

// Self-test hook: makes one reference answer wrong.
void CorruptOne(Answers* answers);

// The synthetic t.qq auxiliary network (options.users users, grown by the
// Section 5.1 threat model) and a target of options.targets users planted
// at density 0.01, both from a fixed generator seed, published through
// KDDA with an anonymization drawn from options.seed; with ground truth.
hinpriv::util::Result<hinpriv::eval::ExperimentDataset> GenerateDataset(
    const Options& options);

// A fixed permutation of [0, n) derived from the seed.
std::vector<hinpriv::hin::VertexId> Permutation(size_t n, uint64_t seed);

std::string DataPath(const Options& options, const std::string& file);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
