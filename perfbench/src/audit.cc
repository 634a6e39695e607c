// audit_d2: a publisher's offline audit, no server. Each round computes
// the paper's risk ladder R(T) for n = 0..2 over the 200k-user network
// (core::NetworkPrivacyRisk) and then a cold attack-precision audit of all
// targets at n = 2 (eval::EvaluateAttackParallel after
// Dehin::InvalidateTarget) on an nproc-1 worker pool. At n = 2 the match
// cache does real work and exec runs across-target tasks; core.risk runs
// nowhere else, and no service layer is involved.
#include <algorithm>
#include <future>
#include <string>
#include <vector>

#include "bench.h"
#include "core/matchers.h"
#include "core/privacy_risk.h"
#include "core/signature.h"
#include "eval/metrics.h"
#include "eval/parallel_metrics.h"
#include "exec/executor.h"
#include "hin/io.h"
#include "hin/snapshot.h"
#include "host.h"
#include "inputs.h"
#include "metrics.h"
#include "obs/trace.h"

namespace perfbench {

namespace hp = hinpriv;

namespace {

constexpr int kDepth = 2;

// Same signature configuration as the service's risk verb: every profile
// attribute of entity type 0 plus every link type.
hp::core::SignatureOptions RiskOptions(const hp::hin::Graph& graph) {
  hp::core::SignatureOptions options;
  for (hp::hin::AttributeId a = 0; a < graph.num_attributes(0); ++a) {
    options.attributes.push_back(a);
  }
  options.link_types = hp::core::AllLinkTypes(graph);
  return options;
}

std::vector<size_t> Ladder(const hp::hin::Graph& graph, int max_distance) {
  std::vector<size_t> cardinalities;
  for (const hp::core::NetworkRiskResult& level :
       hp::core::NetworkPrivacyRisk(graph, RiskOptions(graph), max_distance)) {
    cardinalities.push_back(level.cardinality);
  }
  return cardinalities;
}

// The audit's answer; parallel evaluation is bit-identical to serial.
bool SameAudit(const hp::eval::AttackMetrics& a,
               const hp::eval::AttackMetrics& b) {
  return a.num_evaluated == b.num_evaluated &&
         a.num_unique_correct == b.num_unique_correct &&
         a.num_containing_truth == b.num_containing_truth &&
         a.precision == b.precision && a.reduction_rate == b.reduction_rate &&
         a.mean_candidate_count == b.mean_candidate_count;
}

struct Audited {
  Audited(hp::hin::Graph target_graph, hp::hin::Graph aux_graph)
      : target(std::move(target_graph)), aux(std::move(aux_graph)) {}
  hp::hin::Graph target;
  hp::hin::Graph aux;
  std::unique_ptr<hp::core::Dehin> dehin;
};

struct Reference {
  std::vector<size_t> ladder;
  hp::eval::AttackMetrics audit;
  Answers answers;
  std::vector<hp::hin::VertexId> truth;
};

void Check(bool correct, Outcome* outcome) {
  ++outcome->attempted;
  if (!correct) {
    ++outcome->failed;
    ++outcome->mismatches;
  }
}

// Runs the cold audit from a worker of `pool`, so the pool's workers are
// the only threads doing attack work.
hp::eval::AttackMetrics ColdAudit(const Audited& audited,
                                  const std::vector<hp::hin::VertexId>& truth,
                                  hp::exec::Executor* pool) {
  audited.dehin->InvalidateTarget(audited.target);
  std::promise<hp::eval::AttackMetrics> done;
  auto metrics = done.get_future();
  pool->Submit(
      [&] {
        hp::eval::ParallelEvalOptions options;
        options.executor = pool;
        done.set_value(hp::eval::EvaluateAttackParallel(
            *audited.dehin, audited.target, truth, kDepth, options));
      },
      hp::exec::Priority::kHigh);
  return metrics.get();
}

struct Rounds {
  std::vector<double> risk_s;
  std::vector<double> audit_s;
  std::vector<double> round_s;
};

// One round: the risk ladder, then the cold audit.
void AuditRound(const Audited& audited, const Reference& reference,
                hp::exec::Executor* pool, Rounds* rounds, Outcome* outcome) {
  const Clock::time_point round = Clock::now();
  {
    const Clock::time_point risk = Clock::now();
    const std::vector<size_t> ladder = Ladder(audited.aux, kDepth);
    rounds->risk_s.push_back(SecondsSince(risk));
    Check(ladder == reference.ladder, outcome);
  }
  {
    const Clock::time_point audit = Clock::now();
    const hp::eval::AttackMetrics metrics =
        ColdAudit(audited, reference.truth, pool);
    rounds->audit_s.push_back(SecondsSince(audit));
    Check(SameAudit(metrics, reference.audit), outcome);
  }
  rounds->round_s.push_back(SecondsSince(round));
}

}  // namespace

hp::util::Status RunAudit(const Options& options, Outcome* outcome) {
  const std::string target_path = DataPath(options, "target.snap");
  const std::string aux_path = DataPath(options, "aux.snap");
  Reference reference;
  {
    auto dataset = GenerateDataset(options);
    if (!dataset.ok()) return dataset.status();
    const hp::eval::ExperimentDataset& data = dataset.value();
    HINPRIV_RETURN_IF_ERROR(
        hp::hin::SaveGraphSnapshot(data.target, target_path));
    HINPRIV_RETURN_IF_ERROR(
        hp::hin::SaveGraphSnapshot(data.auxiliary, aux_path));
    const hp::core::Dehin dehin(&data.auxiliary, AttackConfig(kDepth));
    reference.ladder = Ladder(data.auxiliary, kDepth);
    reference.audit =
        hp::eval::EvaluateAttack(dehin, data.target, data.ground_truth, kDepth);
    reference.answers = ReferenceAnswers(dehin, data.target, kDepth);
    reference.truth = data.ground_truth;
  }
  if (options.corrupt_reference) {
    CorruptOne(&reference.answers);
    ++reference.audit.num_unique_correct;
  }
  const hp::hin::VertexId first =
      Permutation(reference.answers.size(), options.seed)[0];

  // Set-up: graph files on disk to the first correct answer.
  WarmAllCores(kWarmSeconds);
  std::vector<double> setup_s, load_s, build_s;
  std::unique_ptr<Audited> audited;
  for (int i = 0; i < kRestarts; ++i) {
    audited.reset();
    ResetPeakRss();  // peak_rss_mb covers the last set-up on
    const Clock::time_point setup = Clock::now();
    {
      const Clock::time_point load = Clock::now();
      auto target = hp::hin::LoadGraphAuto(target_path);
      if (!target.ok()) return target.status();
      auto aux = hp::hin::LoadGraphAuto(aux_path);
      if (!aux.ok()) return aux.status();
      audited = std::make_unique<Audited>(std::move(target.value()),
                                          std::move(aux.value()));
      load_s.push_back(SecondsSince(load));
    }
    {
      const Clock::time_point build = Clock::now();
      audited->dehin = std::make_unique<hp::core::Dehin>(&audited->aux,
                                                          AttackConfig(kDepth));
      build_s.push_back(SecondsSince(build));
    }
    const Answer answer =
        Encode(audited->dehin->Deanonymize(audited->target, first, kDepth));
    setup_s.push_back(SecondsSince(setup));
    Check(answer == reference.answers[first], outcome);
  }

  const size_t workers =
      static_cast<size_t>(std::max(1, OnlineCpus() - 1));
  hp::exec::Executor pool(workers);
  WarmAllCores(kWarmSeconds);
  if (!options.trace) {
    Rounds rounds;
    const Clock::time_point start = Clock::now();
    do {
      AuditRound(*audited, reference, &pool, &rounds, outcome);
    } while (SecondsSince(start) < options.seconds);
    outcome->Set("setup_s", Median(setup_s));
    outcome->Set("peak_rss_mb", PeakRssMb());
    outcome->Set("op_ms", Median(rounds.risk_s) * 1e3);
    outcome->Set("tail_ms", Median(rounds.audit_s) * 1e3);
    return hp::util::Status::OK();
  }

  // Traced: cycles of a round inside the program's counters, the same
  // round with the program's span recorder on, each risk level alone and a
  // serial cold audit, so every number below samples the same host states.
  static constexpr const char* kLevels[] = {"core.risk.n0_s", "core.risk.n1_s",
                                            "core.risk.n2_s"};
  Rounds rounds, traced;
  RegistryDeltas counters;
  std::vector<double> level_s[kDepth + 1];
  PerTarget latency_core(reference.answers.size());
  std::vector<double> serial_s;
  const Clock::time_point start = Clock::now();
  do {
    counters.Begin();
    AuditRound(*audited, reference, &pool, &rounds, outcome);
    counters.End();
    hp::obs::StartTracing();
    AuditRound(*audited, reference, &pool, &traced, outcome);
    hp::obs::StopTracing();
    for (int n = 0; n <= kDepth; ++n) {
      const Clock::time_point level = Clock::now();
      const std::vector<size_t> ladder = Ladder(audited->aux, n);
      level_s[n].push_back(SecondsSince(level));
      Check(std::equal(ladder.begin(), ladder.end(), reference.ladder.begin()),
            outcome);
    }
    audited->dehin->InvalidateTarget(audited->target);
    const Clock::time_point serial = Clock::now();
    for (hp::hin::VertexId vt = 0; vt < reference.answers.size(); ++vt) {
      const Clock::time_point one = Clock::now();
      const Answer answer =
          Encode(audited->dehin->Deanonymize(audited->target, vt, kDepth));
      latency_core.Record(vt, SecondsSince(one));
      Check(answer == reference.answers[vt], outcome);
    }
    serial_s.push_back(SecondsSince(serial));
  } while (SecondsSince(start) < options.seconds);

  const std::vector<double> core = latency_core.Medians();
  outcome->Set("hin.load_s", Median(load_s));
  outcome->Set("core.dehin.build_s", Median(build_s));
  outcome->Set("core.dehin.deanonymize_p50_us", Median(core) * 1e6);
  outcome->Set("core.dehin.deanonymize_p99_us", Percentile(core, 99) * 1e6);
  outcome->Set("eval.across_target_speedup",
               Median(serial_s) / Median(rounds.audit_s));
  for (int n = 0; n <= kDepth; ++n) {
    outcome->Set(kLevels[n], Median(level_s[n]));
  }
  SetCounterLayers(counters, static_cast<double>(rounds.round_s.size()),
                   outcome);
  SetNotOnPath({"hin.delta_load_ms", "hin.apply_delta_ms",
                "core.dehin.apply_aux_delta_ms", "service.overhead_p50_us",
                "service.overhead_p99_us", "service.batch_size_mean"},
               outcome);
  const double risk_ms = Median(level_s[kDepth]) * 1e3;
  const double parallel_ms =
      Median(serial_s) * 1e3 / static_cast<double>(workers);
  SetReconciliation("audit round", Median(rounds.round_s) * 1e3,
                    "core.risk n<=2 " + std::to_string(risk_ms) +
                        " + serial cold core.dehin / " +
                        std::to_string(workers) + " workers " +
                        std::to_string(parallel_ms),
                    risk_ms + parallel_ms, Median(traced.round_s) * 1e3,
                    outcome);
  return hp::util::Status::OK();
}

}  // namespace perfbench
