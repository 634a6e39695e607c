// grow_d1: the write path beside reads. A resident server over a heap
// auxiliary graph loaded from the text format (mapped graphs refuse
// deltas) answers a reader connection's closed loop of attack_one at n=1
// while a writer connection issues apply_delta at a fixed cadence for
// pre-sampled growth batches of about 0.2% new users and 0.03% new links.
// Each apply holds the server's warm-state lock exclusively for
// GraphBuilder::ApplyDelta plus Dehin::ApplyAuxDelta, so it stalls the
// reader one for one. A verification round after the last batch checks
// every answer against a fresh Dehin over the benchmark's own grown copy.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "hin/graph_builder.h"
#include "hin/graph_delta.h"
#include "hin/io.h"
#include "host.h"
#include "inputs.h"
#include "metrics.h"
#include "obs/trace.h"
#include "served.h"
#include "synth/growth.h"

namespace perfbench {

namespace hp = hinpriv;

namespace {

constexpr int kDepth = 1;
// Growth batches per second of the timed phase (apply cadence).
constexpr double kBatchesPerSecond = 2.0;

// The delta_scaling bench defaults: each batch stays under 1% of V.
hp::synth::GrowthConfig BatchGrowth() {
  hp::synth::GrowthConfig growth;
  growth.new_user_fraction = 0.002;
  growth.new_edge_fraction = 0.0003;
  growth.attr_growth_prob = 0.001;
  growth.strength_growth_prob = 0.0003;
  return growth;
}

std::string DeltaPath(const Options& options, size_t batch) {
  return DataPath(options, "delta-" + std::to_string(batch) + ".txt");
}

struct Reference {
  // epochs[e]: every target's answer after e batches, each from a fresh
  // Dehin over the benchmark's own copy grown by those batches. The last
  // one is what the verification pass checks.
  std::vector<Answers> epochs;
  // Auxiliary vertex count after each batch.
  std::vector<size_t> vertices;
};

// One client call, as the client saw it.
struct Call {
  Clock::time_point sent;
  Clock::time_point received;
  double seconds() const { return Seconds(sent, received); }
};

// Lets the writer hold the reader between two requests.
class Gate {
 public:
  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !closed_; });
    busy_ = true;
  }
  void Leave() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_ = false;
    }
    cv_.notify_all();
  }
  // Returns once the reader is between requests.
  void Close() {
    std::unique_lock<std::mutex> lock(mu_);
    closed_ = true;
    cv_.wait(lock, [&] { return !busy_; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = false;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  bool busy_ = false;
};

struct Phase {
  std::vector<Call> reads;
  std::vector<Call> applies;
  // When set, records the reads that overlapped no apply.
  PerTarget* latency = nullptr;
};

// Runs after batch b's apply_delta returns, with the reader held.
using AfterApply = std::function<hp::util::Status(size_t batch)>;

// Reader and writer against the live server, one batch every `cadence_s`.
// The reader keeps going until the last batch is acknowledged. Every
// answer must equal the reference of some epoch between the batches
// acknowledged before it was sent and the batches issued when it came
// back. With `trace_odd_batches`, the program's span recorder is on while
// odd batches apply and off for even ones, so both sample the same host
// states.
hp::util::Status GrowPhase(const Options& options, Served* served,
                           const std::vector<hp::hin::VertexId>& order,
                           const Reference& reference, size_t batches,
                           double cadence_s, bool trace_odd_batches,
                           const AfterApply& after_apply, Phase* phase,
                           Outcome* outcome) {
  auto reader = hp::service::Client::Connect("127.0.0.1",
                                             served->server->port());
  if (!reader.ok()) return reader.status();
  std::atomic<size_t> issued{0};
  std::atomic<size_t> applied{0};
  std::atomic<bool> writer_done{false};
  Gate gate;
  Outcome reader_outcome;
  const Clock::time_point start = Clock::now();
  std::thread reader_thread([&] {
    size_t cursor = 0;
    while (!writer_done.load(std::memory_order_acquire)) {
      const hp::hin::VertexId vt = order[cursor++ % order.size()];
      gate.Enter();
      const size_t lo = applied.load(std::memory_order_acquire);
      const Clock::time_point sent = Clock::now();
      const Reply reply = Attack(&reader.value(), vt, kDepth);
      const Clock::time_point received = Clock::now();
      const size_t hi = issued.load(std::memory_order_acquire);
      gate.Leave();
      phase->reads.push_back({sent, received});
      if (phase->latency != nullptr && hi == lo) {
        phase->latency->Record(vt, Seconds(sent, received));
      }
      size_t match = lo;
      while (match < hi && reply.answer &&
             !(*reply.answer == reference.epochs[match][vt])) {
        ++match;
      }
      Count(reply, reference.epochs[match][vt], &reader_outcome);
    }
  });

  hp::util::Status status = hp::util::Status::OK();
  for (size_t b = 0; b < batches && status.ok(); ++b) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>((b + 0.5) * cadence_s)));
    const bool traced = trace_odd_batches && b % 2 == 1;
    issued.store(b + 1, std::memory_order_release);
    if (traced) hp::obs::StartTracing();
    const Clock::time_point sent = Clock::now();
    auto response = served->client.ApplyDelta(DeltaPath(options, b));
    const Clock::time_point received = Clock::now();
    if (traced) hp::obs::StopTracing();
    phase->applies.push_back({sent, received});
    ++outcome->attempted;
    if (!response.ok() ||
        response.value().code != hp::service::ResponseCode::kOk) {
      ++outcome->failed;
      status = response.ok() ? hp::util::Status::FailedPrecondition(
                                   "apply_delta: " + response.value().error)
                             : response.status();
      break;
    }
    const hp::service::JsonValue& result = response.value().result;
    if (result.GetInt("batches_applied", -1) != 1 ||
        result.GetInt("num_vertices", -1) !=
            static_cast<int64_t>(reference.vertices[b])) {
      ++outcome->failed;
      ++outcome->mismatches;
    }
    applied.store(b + 1, std::memory_order_release);
    if (after_apply) {
      gate.Close();
      status = after_apply(b);
      gate.Open();
    }
  }
  writer_done.store(true, std::memory_order_release);
  reader_thread.join();
  outcome->attempted += reader_outcome.attempted;
  outcome->failed += reader_outcome.failed;
  outcome->mismatches += reader_outcome.mismatches;
  return status;
}

// The verification pass after the last batch: every answer against a
// fresh Dehin over the benchmark's own grown copy.
void Verify(Served* served, const std::vector<hp::hin::VertexId>& order,
            const Reference& reference, Outcome* outcome) {
  for (hp::hin::VertexId vt : order) {
    Count(Attack(&served->client, vt, kDepth), reference.epochs.back()[vt],
          outcome);
  }
}

// Client-observed applies of batches first, first + step, ...
std::vector<double> ApplySeconds(const Phase& phase, size_t first,
                                 size_t step) {
  std::vector<double> seconds;
  for (size_t b = first; b < phase.applies.size(); b += step) {
    seconds.push_back(phase.applies[b].seconds());
  }
  return seconds;
}

// Per batch, the longest attack_one in flight while it applied.
std::vector<double> StallSeconds(const Phase& phase) {
  std::vector<double> stalls;
  for (const Call& a : phase.applies) {
    double longest = 0.0;
    for (const Call& r : phase.reads) {
      if (r.sent < a.received && r.received > a.sent) {
        longest = std::max(longest, r.seconds());
      }
    }
    if (longest > 0.0) stalls.push_back(longest);
  }
  return stalls;
}

}  // namespace

hp::util::Status RunGrow(const Options& options, Outcome* outcome) {
  const std::string target_path = DataPath(options, "target.txt");
  const std::string aux_path = DataPath(options, "aux.txt");
  const size_t batches = std::max<size_t>(
      2, static_cast<size_t>(options.seconds * kBatchesPerSecond));
  Reference reference;
  {
    auto dataset = GenerateDataset(options);
    if (!dataset.ok()) return dataset.status();
    hp::eval::ExperimentDataset& data = dataset.value();
    HINPRIV_RETURN_IF_ERROR(hp::hin::SaveGraphToFile(data.target, target_path));
    HINPRIV_RETURN_IF_ERROR(hp::hin::SaveGraphToFile(data.auxiliary, aux_path));
    // A fresh Dehin per epoch, so no answer depends on the incremental
    // maintenance under test.
    const auto epoch_answers = [&data] {
      const hp::core::Dehin dehin(&data.auxiliary, AttackConfig(kDepth));
      return ReferenceAnswers(dehin, data.target, kDepth);
    };
    reference.epochs.push_back(epoch_answers());
    hp::synth::TqqConfig profile;
    profile.num_users = options.users;
    hp::util::Rng rng(options.seed ^ 0x67726f77ull);
    for (size_t b = 0; b < batches; ++b) {
      auto delta = hp::synth::SampleGrowthDelta(data.auxiliary, BatchGrowth(),
                                                profile, &rng);
      if (!delta.ok()) return delta.status();
      HINPRIV_RETURN_IF_ERROR(
          hp::hin::GraphBuilder::ApplyDelta(&data.auxiliary, delta.value()));
      HINPRIV_RETURN_IF_ERROR(hp::hin::SaveDeltaStreamToFile(
          {delta.value()}, DeltaPath(options, b)));
      reference.epochs.push_back(epoch_answers());
      reference.vertices.push_back(data.auxiliary.num_vertices());
    }
  }
  if (options.corrupt_reference) CorruptOne(&reference.epochs.back());
  const std::vector<hp::hin::VertexId> order =
      Permutation(reference.epochs[0].size(), options.seed);

  WarmAllCores(kWarmSeconds);
  auto setup = SetUpServed(target_path, aux_path, /*mutable_aux=*/true,
                           order[0], reference.epochs[0][order[0]], outcome);
  if (!setup.ok()) return setup.status();
  Served* served = setup.value().served.get();
  const double cadence_s = options.seconds / static_cast<double>(batches);

  Phase phase;
  if (!options.trace) {
    WarmAllCores(kWarmSeconds);
    HINPRIV_RETURN_IF_ERROR(GrowPhase(options, served, order, reference,
                                      batches, cadence_s, false, nullptr,
                                      &phase, outcome));
    const double peak_rss_mb = PeakRssMb();
    Verify(served, order, reference, outcome);
    outcome->Set("setup_s", Median(setup.value().seconds));
    outcome->Set("peak_rss_mb", peak_rss_mb);
    outcome->Set("op_ms", Median(ApplySeconds(phase, 0, 1)) * 1e3);
    outcome->Set("tail_ms", Median(StallSeconds(phase)) * 1e3);
    return hp::util::Status::OK();
  }

  // Traced: after each served batch, with the reader held, the same batch
  // goes through the write path's layers in process on a heap copy grown
  // exactly like the server's, so both sample the same host states.
  auto copy = hp::hin::LoadGraphAuto(aux_path);
  if (!copy.ok()) return copy.status();
  hp::hin::Graph aux = std::move(copy.value());
  std::vector<double> build_s, load_ms, apply_ms, warm_ms;
  std::unique_ptr<hp::core::Dehin> dehin;
  for (int i = 0; i < kRestarts; ++i) {
    const Clock::time_point build = Clock::now();
    dehin = std::make_unique<hp::core::Dehin>(&aux, AttackConfig(kDepth));
    build_s.push_back(SecondsSince(build));
  }
  const AfterApply in_process_apply = [&](size_t b) -> hp::util::Status {
    const Clock::time_point load = Clock::now();
    auto stream = hp::hin::LoadDeltaStreamFromFile(DeltaPath(options, b));
    load_ms.push_back(SecondsSince(load) * 1e3);
    if (!stream.ok()) return stream.status();
    for (const hp::hin::GraphDelta& d : stream.value()) {
      const Clock::time_point apply = Clock::now();
      HINPRIV_RETURN_IF_ERROR(hp::hin::GraphBuilder::ApplyDelta(&aux, d));
      apply_ms.push_back(SecondsSince(apply) * 1e3);
      const Clock::time_point warm = Clock::now();
      HINPRIV_RETURN_IF_ERROR(dehin->ApplyAuxDelta(d));
      warm_ms.push_back(SecondsSince(warm) * 1e3);
    }
    return hp::util::Status::OK();
  };
  PerTarget latency_served(order.size());
  phase.latency = &latency_served;
  RegistryDeltas counters;
  WarmAllCores(kWarmSeconds);
  counters.Begin();
  HINPRIV_RETURN_IF_ERROR(GrowPhase(options, served, order, reference,
                                    batches, cadence_s, true,
                                    in_process_apply, &phase, outcome));
  counters.End();
  Verify(served, order, reference, outcome);

  const hp::core::Dehin grown(&aux, AttackConfig(kDepth));
  InProcessAttack in_process(&grown, &served->target);
  PerTarget latency_core(order.size());
  const Clock::time_point start = Clock::now();
  do {
    InProcessPass(&in_process, order, reference.epochs.back(), kDepth,
                  &latency_core, outcome);
  } while (SecondsSince(start) < options.seconds / 4.0);
  const double floor_s = ServiceFloorSeconds(
      &served->client, static_cast<int>(order.size()), outcome);

  const std::vector<double> core = latency_core.Medians();
  const std::vector<double> served_s = latency_served.Medians();
  std::vector<double> overhead(order.size());
  for (size_t t = 0; t < order.size(); ++t) {
    overhead[t] = served_s[t] - core[t];
  }
  outcome->Set("hin.load_s", Median(setup.value().load_s));
  outcome->Set("core.dehin.build_s", Median(build_s));
  outcome->Set("hin.delta_load_ms", Median(load_ms));
  outcome->Set("hin.apply_delta_ms", Median(apply_ms));
  outcome->Set("core.dehin.apply_aux_delta_ms", Median(warm_ms));
  outcome->Set("core.dehin.deanonymize_p50_us", Median(core) * 1e6);
  outcome->Set("core.dehin.deanonymize_p99_us", Percentile(core, 99) * 1e6);
  outcome->Set("service.overhead_p50_us", Median(overhead) * 1e6);
  outcome->Set("service.overhead_p99_us", Percentile(overhead, 99) * 1e6);
  outcome->Set("service.batch_size_mean",
               counters.Histogram("service/batch_size").Mean());
  SetCounterLayers(counters,
                   static_cast<double>(phase.reads.size()) /
                       static_cast<double>(order.size()),
                   outcome);
  SetNotOnPath({"eval.across_target_speedup", "core.risk.n0_s",
                "core.risk.n1_s", "core.risk.n2_s"},
               outcome);
  const double layers_ms =
      Median(load_ms) + Median(apply_ms) + Median(warm_ms) + floor_s * 1e3;
  SetReconciliation(
      "apply_delta", Median(ApplySeconds(phase, 0, 2)) * 1e3,
      "hin.delta_load " + std::to_string(Median(load_ms)) +
          " + hin.apply_delta " + std::to_string(Median(apply_ms)) +
          " + core.dehin.apply_aux_delta " + std::to_string(Median(warm_ms)) +
          " + service floor " + std::to_string(floor_s * 1e3),
      layers_ms, Median(ApplySeconds(phase, 1, 2)) * 1e3, outcome);
  return hp::util::Status::OK();
}

}  // namespace perfbench
