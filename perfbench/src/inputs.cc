#include "inputs.h"

#include <algorithm>
#include <utility>

#include "anon/kdd_anonymizer.h"
#include "core/matchers.h"
#include "synth/planted_target.h"
#include "synth/tqq_config.h"
#include "util/random.h"

namespace perfbench {

namespace hp = hinpriv;

// Generator seed of the network and of the planted target's users. Which
// 1,000 users are planted decides the heaviest targets, and so p99 and
// the cold audit's length: with --seed driving them, those spread about
// 30% (IQR over median) across six seeds, far beyond the host's own
// noise. --seed drives the published graph's anonymization, the query
// order and the growth batches.
constexpr uint64_t kNetworkSeed = 20140324;

// Heterogeneous density of the planted target (Equation 4).
constexpr double kTargetDensity = 0.01;

// The service encodes at most this many candidates per answer.
constexpr size_t kEncodedCandidates = 1024;

Answer Encode(const std::vector<hp::hin::VertexId>& candidates) {
  Answer answer;
  answer.total = candidates.size();
  const size_t n = std::min(candidates.size(), kEncodedCandidates);
  answer.head.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    answer.head.push_back(static_cast<int64_t>(candidates[i]));
  }
  return answer;
}

std::optional<Answer> Decode(const hp::service::JsonValue& result) {
  const hp::service::JsonValue* candidates = result.Find("candidates");
  const int64_t total = result.GetInt("num_candidates", -1);
  if (candidates == nullptr || !candidates->is_array() || total < 0) {
    return std::nullopt;
  }
  Answer answer;
  answer.total = static_cast<size_t>(total);
  answer.head.reserve(candidates->items().size());
  for (const hp::service::JsonValue& item : candidates->items()) {
    answer.head.push_back(item.AsInt(-1));
  }
  return answer;
}

hp::core::DehinConfig AttackConfig(int max_distance) {
  hp::core::DehinConfig config;
  config.match = hp::core::DefaultTqqMatchOptions();
  config.max_distance = max_distance;
  return config;
}

Answers ReferenceAnswers(const hp::core::Dehin& dehin,
                         const hp::hin::Graph& target, int max_distance) {
  Answers answers(target.num_vertices());
  for (hp::hin::VertexId vt = 0; vt < target.num_vertices(); ++vt) {
    answers[vt] = Encode(dehin.Deanonymize(target, vt, max_distance));
  }
  return answers;
}

void CorruptOne(Answers* answers) {
  if (!answers->empty()) (*answers)[0].total += 1;
}

hp::util::Result<hp::eval::ExperimentDataset> GenerateDataset(
    const Options& options) {
  hp::synth::TqqConfig config;
  config.num_users = options.users;
  hp::synth::PlantedTargetSpec spec;
  spec.target_size = options.targets;
  spec.density = kTargetDensity;
  hp::util::Rng structure(kNetworkSeed);
  auto planted = hp::synth::BuildPlantedDataset(
      config, spec, hp::synth::GrowthConfig{}, &structure);
  if (!planted.ok()) return planted.status();
  hp::util::Rng rng(options.seed);
  auto published = hp::anon::KddAnonymizer().Anonymize(planted.value().target,
                                                       &rng);
  if (!published.ok()) return published.status();
  // Published vertex i is original target vertex to_original[i].
  std::vector<hp::hin::VertexId> truth(published.value().graph.num_vertices());
  for (hp::hin::VertexId i = 0; i < truth.size(); ++i) {
    truth[i] =
        planted.value().target_to_aux[published.value().to_original[i]];
  }
  return hp::eval::ExperimentDataset{std::move(planted.value().auxiliary),
                                     std::move(published.value().graph),
                                     std::move(truth),
                                     planted.value().target_density};
}

std::vector<hp::hin::VertexId> Permutation(size_t n, uint64_t seed) {
  std::vector<hp::hin::VertexId> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<hp::hin::VertexId>(i);
  hp::util::Rng rng(seed ^ 0x5eedf00dull);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformU64(i)]);
  }
  return order;
}

std::string DataPath(const Options& options, const std::string& file) {
  return options.data_dir + "/" + file;
}

}  // namespace perfbench
