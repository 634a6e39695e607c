// serve_d1: a resident server (2 workers, default parallel scan and
// micro-batching) over a mapped HINPRIVS snapshot, driven by one client
// connection in a closed loop of attack_one at n=1 over every target in a
// fixed permutation. At n=1 the match cache is bypassed and nothing
// queues, so latency is service time plus index, prefilter and
// Hopcroft-Karp work.
#include <string>
#include <vector>

#include "bench.h"
#include "hin/snapshot.h"
#include "host.h"
#include "inputs.h"
#include "metrics.h"
#include "obs/trace.h"
#include "served.h"

namespace perfbench {

namespace hp = hinpriv;

namespace {

constexpr int kDepth = 1;

// One served pass over every target; returns its wall time.
double ServedPass(Served* served, const std::vector<hp::hin::VertexId>& order,
                  const Answers& answers, PerTarget* latency,
                  Outcome* outcome) {
  const Clock::time_point start = Clock::now();
  for (hp::hin::VertexId vt : order) {
    const Clock::time_point sent = Clock::now();
    const Reply reply = Attack(&served->client, vt, kDepth);
    if (latency != nullptr) latency->Record(vt, SecondsSince(sent));
    Count(reply, answers[vt], outcome);
  }
  return SecondsSince(start);
}

// Untraced passes until `seconds` have elapsed (at least one).
void ServedPasses(double seconds, Served* served,
                  const std::vector<hp::hin::VertexId>& order,
                  const Answers& answers, PerTarget* latency,
                  Outcome* outcome) {
  const Clock::time_point start = Clock::now();
  do {
    ServedPass(served, order, answers, latency, outcome);
  } while (SecondsSince(start) < seconds);
}

}  // namespace

hp::util::Status RunServe(const Options& options, Outcome* outcome) {
  const std::string target_path = DataPath(options, "target.snap");
  const std::string aux_path = DataPath(options, "aux.snap");
  Answers answers;
  {
    auto dataset = GenerateDataset(options);
    if (!dataset.ok()) return dataset.status();
    HINPRIV_RETURN_IF_ERROR(
        hp::hin::SaveGraphSnapshot(dataset.value().target, target_path));
    HINPRIV_RETURN_IF_ERROR(
        hp::hin::SaveGraphSnapshot(dataset.value().auxiliary, aux_path));
    const hp::core::Dehin reference(&dataset.value().auxiliary,
                                    AttackConfig(kDepth));
    answers = ReferenceAnswers(reference, dataset.value().target, kDepth);
  }
  if (options.corrupt_reference) CorruptOne(&answers);
  const std::vector<hp::hin::VertexId> order =
      Permutation(answers.size(), options.seed);

  WarmAllCores(kWarmSeconds);
  auto setup = SetUpServed(target_path, aux_path, /*mutable_aux=*/false,
                           order[0], answers[order[0]], outcome);
  if (!setup.ok()) return setup.status();
  Served* served = setup.value().served.get();

  WarmAllCores(kWarmSeconds);
  ServedPass(served, order, answers, nullptr, outcome);  // warm-up

  if (!options.trace) {
    PerTarget latency(answers.size());
    ServedPasses(options.seconds, served, order, answers, &latency, outcome);
    const std::vector<double> per_target = latency.Medians();
    outcome->Set("setup_s", Median(setup.value().seconds));
    outcome->Set("peak_rss_mb", PeakRssMb());
    outcome->Set("op_ms", Median(per_target) * 1e3);
    outcome->Set("tail_ms", Percentile(per_target, 99) * 1e3);
    return hp::util::Status::OK();
  }

  // Traced: cycles of a served pass inside the program's counters, the
  // same pass with the program's span recorder on, an in-process pass and
  // a service-floor pass, so every number below samples the same host
  // states.
  std::vector<double> build_s;
  for (int i = 0; i < kRestarts; ++i) {
    const Clock::time_point build = Clock::now();
    const hp::core::Dehin probe(&served->aux, AttackConfig(kDepth));
    build_s.push_back(SecondsSince(build));
  }
  const hp::core::Dehin dehin(&served->aux, AttackConfig(kDepth));
  InProcessAttack in_process(&dehin, &served->target);
  PerTarget latency_served(answers.size());
  PerTarget latency_core(answers.size());
  std::vector<double> pass_s, traced_s, floor_s;
  RegistryDeltas counters;
  const Clock::time_point start = Clock::now();
  do {
    counters.Begin();
    pass_s.push_back(
        ServedPass(served, order, answers, &latency_served, outcome));
    counters.End();
    hp::obs::StartTracing();
    traced_s.push_back(ServedPass(served, order, answers, nullptr, outcome));
    hp::obs::StopTracing();
    InProcessPass(&in_process, order, answers, kDepth, &latency_core,
                  outcome);
    floor_s.push_back(ServiceFloorSeconds(
        &served->client, static_cast<int>(answers.size()), outcome));
  } while (SecondsSince(start) < options.seconds);

  const std::vector<double> core = latency_core.Medians();
  const std::vector<double> served_s = latency_served.Medians();
  std::vector<double> overhead(answers.size());
  for (size_t t = 0; t < answers.size(); ++t) {
    overhead[t] = served_s[t] - core[t];
  }
  outcome->Set("hin.load_s", Median(setup.value().load_s));
  outcome->Set("core.dehin.build_s", Median(build_s));
  outcome->Set("core.dehin.deanonymize_p50_us", Median(core) * 1e6);
  outcome->Set("core.dehin.deanonymize_p99_us", Percentile(core, 99) * 1e6);
  outcome->Set("service.overhead_p50_us", Median(overhead) * 1e6);
  outcome->Set("service.overhead_p99_us", Percentile(overhead, 99) * 1e6);
  outcome->Set("service.batch_size_mean",
               counters.Histogram("service/batch_size").Mean());
  SetCounterLayers(counters, static_cast<double>(pass_s.size()), outcome);
  SetNotOnPath({"hin.delta_load_ms", "hin.apply_delta_ms",
                "core.dehin.apply_aux_delta_ms", "eval.across_target_speedup",
                "core.risk.n0_s", "core.risk.n1_s", "core.risk.n2_s"},
               outcome);
  double core_ms = 0.0;
  for (double seconds : core) core_ms += seconds * 1e3;
  const double service_ms =
      Median(floor_s) * static_cast<double>(answers.size()) * 1e3;
  SetReconciliation(
      "served pass", Median(pass_s) * 1e3,
      "core.dehin " + std::to_string(core_ms) + " + service floor " +
          std::to_string(service_ms),
      core_ms + service_ms, Median(traced_s) * 1e3, outcome);
  return hp::util::Status::OK();
}

}  // namespace perfbench
