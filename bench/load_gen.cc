// Closed-/open-loop load generator for the sharded scatter-gather attack
// tier (BENCH_shard_scaling.json).
//
// Default (self-hosted) mode generates the synthetic t.qq substrate,
// computes the unsharded reference answer for every target up front, then
// for each shard count in --shards starts an in-process shard::ShardTier
// and drives it over real loopback TCP for --duration_sec. Every OK
// response is differentially verified against the reference — a merged
// candidate list that is not bit-identical to the unsharded scan aborts
// the run — so the committed QPS/latency numbers can only come from
// correct merges.
//
//   closed loop (--rate 0): each of --connections clients keeps exactly
//     one request in flight; throughput is whatever the tier sustains.
//   open loop (--rate Q): clients send on a fixed schedule totalling Q
//     requests/sec, and latency is measured from the *scheduled* send
//     time, so queueing delay from a saturated tier is charged to the
//     response (no coordinated omission).
//
// With --port set the generator instead drives an already-running server
// (e.g. `hinpriv_cli serve --shards 2`), cycling targets [0, target_ids);
// pass --verify_target/--verify_aux with the served graph files to keep
// the differential guard in that mode.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "anon/kdd_anonymizer.h"
#include "bench/bench_common.h"
#include "core/dehin.h"
#include "eval/experiment.h"
#include "hin/io.h"
#include "service/client.h"
#include "service/json.h"
#include "shard/tier.h"
#include "util/random.h"
#include "util/string_util.h"

namespace {

using namespace hinpriv;

// The unsharded reference answer, pre-encoded the way the wire protocol
// encodes it (first 1024 candidates + exact total), so a worker can
// compare a response with two integer checks and one vector compare.
struct ExpectedAnswer {
  std::vector<int64_t> encoded;
  size_t total = 0;
};

constexpr size_t kMaxEncodedCandidates = 1024;

std::vector<ExpectedAnswer> BuildReference(const hin::Graph& target,
                                           const hin::Graph& aux,
                                           const core::DehinConfig& config,
                                           int max_distance) {
  core::Dehin dehin(&aux, config);
  std::vector<ExpectedAnswer> expected(target.num_vertices());
  for (hin::VertexId vt = 0; vt < target.num_vertices(); ++vt) {
    const std::vector<hin::VertexId> candidates =
        dehin.Deanonymize(target, vt, max_distance);
    ExpectedAnswer& e = expected[vt];
    e.total = candidates.size();
    const size_t encoded = std::min(candidates.size(), kMaxEncodedCandidates);
    e.encoded.reserve(encoded);
    for (size_t i = 0; i < encoded; ++i) {
      e.encoded.push_back(static_cast<int64_t>(candidates[i]));
    }
  }
  return expected;
}

struct WorkerTallies {
  uint64_t ok = 0;
  uint64_t busy = 0;
  uint64_t deadline = 0;
  uint64_t errors = 0;
  uint64_t mismatches = 0;
};

struct DriveOptions {
  std::string host;
  uint16_t port = 0;
  size_t num_targets = 0;
  int max_distance = 1;
  double duration_sec = 3.0;
  // Requests/sec this one connection schedules; 0 = closed loop.
  double rate_per_conn = 0.0;
  std::chrono::steady_clock::time_point start;
};

// One connection's send/verify loop. `expected` may be null (no guard).
void DriveConnection(const DriveOptions& options, size_t worker,
                     const std::vector<ExpectedAnswer>* expected,
                     bench::WindowedLatencyProbe* probe,
                     WorkerTallies* tallies) {
  auto client = service::Client::Connect(options.host, options.port);
  if (!client.ok()) {
    ++tallies->errors;
    return;
  }
  const auto deadline =
      options.start + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(options.duration_sec));
  const bool open_loop = options.rate_per_conn > 0.0;
  const auto interval =
      open_loop ? std::chrono::duration_cast<std::chrono::steady_clock::
                                                 duration>(
                      std::chrono::duration<double>(1.0 /
                                                    options.rate_per_conn))
                : std::chrono::steady_clock::duration::zero();
  // Stagger open-loop schedules so connections do not send in phase.
  auto next_send =
      options.start + (open_loop ? interval * static_cast<int>(worker) /
                                       static_cast<int>(worker + 1)
                                 : std::chrono::steady_clock::duration::zero());
  size_t cursor = worker;  // per-worker stride through the target ids
  while (true) {
    if (open_loop) {
      std::this_thread::sleep_until(next_send);
      if (next_send >= deadline) break;
    } else if (std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    const auto target =
        static_cast<hin::VertexId>(cursor % options.num_targets);
    cursor += 17;  // coprime stride: every worker still covers all ids
    const auto sent = open_loop ? next_send : std::chrono::steady_clock::now();
    auto response = client.value().AttackOne(target, options.max_distance);
    const auto received = std::chrono::steady_clock::now();
    if (open_loop) next_send += interval;
    if (!response.ok()) {
      ++tallies->errors;
      // The server may have dropped the connection (e.g. drain); retry on
      // a fresh one rather than silently producing a short run.
      client = service::Client::Connect(options.host, options.port);
      if (!client.ok()) return;
      continue;
    }
    switch (response.value().code) {
      case service::ResponseCode::kOk:
        break;
      case service::ResponseCode::kBusy:
        ++tallies->busy;
        continue;
      case service::ResponseCode::kDeadlineExceeded:
        ++tallies->deadline;
        continue;
      default:
        ++tallies->errors;
        continue;
    }
    probe->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(received - sent)
            .count()));
    ++tallies->ok;
    if (expected == nullptr) continue;
    const ExpectedAnswer& want = (*expected)[target];
    const service::JsonValue& result = response.value().result;
    const service::JsonValue* candidates = result.Find("candidates");
    bool match = candidates != nullptr &&
                 result.GetInt("num_candidates", -1) ==
                     static_cast<int64_t>(want.total) &&
                 candidates->items().size() == want.encoded.size();
    if (match) {
      const auto& items = candidates->items();
      for (size_t i = 0; i < items.size(); ++i) {
        if (items[i].AsInt() != want.encoded[i]) {
          match = false;
          break;
        }
      }
    }
    if (!match) ++tallies->mismatches;
  }
}

struct RunResult {
  WorkerTallies tallies;
  double elapsed_s = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

RunResult RunLoad(const std::string& host, uint16_t port, size_t num_targets,
                  int max_distance, size_t connections, double duration_sec,
                  double rate, const std::vector<ExpectedAnswer>* expected,
                  const char* probe_name) {
  bench::WindowedLatencyProbe probe(probe_name);
  std::vector<WorkerTallies> tallies(connections);
  DriveOptions options;
  options.host = host;
  options.port = port;
  options.num_targets = num_targets;
  options.max_distance = max_distance;
  options.duration_sec = duration_sec;
  options.rate_per_conn =
      rate > 0.0 ? rate / static_cast<double>(connections) : 0.0;
  options.start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (size_t w = 0; w < connections; ++w) {
    workers.emplace_back(DriveConnection, options, w, expected, &probe,
                         &tallies[w]);
  }
  for (auto& t : workers) t.join();
  RunResult result;
  result.elapsed_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - options.start)
                         .count();
  for (const WorkerTallies& t : tallies) {
    result.tallies.ok += t.ok;
    result.tallies.busy += t.busy;
    result.tallies.deadline += t.deadline;
    result.tallies.errors += t.errors;
    result.tallies.mismatches += t.mismatches;
  }
  result.qps = static_cast<double>(result.tallies.ok) / result.elapsed_s;
  const obs::HistogramSnapshot snapshot = probe.Snapshot();
  result.p50_us = snapshot.Percentile(50);
  result.p95_us = snapshot.Percentile(95);
  result.p99_us = snapshot.Percentile(99);
  return result;
}

void PrintRun(const char* label, const RunResult& r) {
  std::printf("%-14s qps=%8.1f p50=%7.0fus p95=%7.0fus p99=%7.0fus "
              "ok=%llu busy=%llu deadline=%llu err=%llu mismatch=%llu\n",
              label, r.qps, r.p50_us, r.p95_us, r.p99_us,
              static_cast<unsigned long long>(r.tallies.ok),
              static_cast<unsigned long long>(r.tallies.busy),
              static_cast<unsigned long long>(r.tallies.deadline),
              static_cast<unsigned long long>(r.tallies.errors),
              static_cast<unsigned long long>(r.tallies.mismatches));
}

bench::BenchJsonEntry JsonEntry(const std::string& name, const RunResult& r,
                                double shards_value) {
  bench::BenchJsonEntry entry;
  entry.name = name;
  entry.real_time_s = r.elapsed_s;
  entry.counters = {{"shards", shards_value},
                    {"qps", r.qps},
                    {"p50_us", r.p50_us},
                    {"p95_us", r.p95_us},
                    {"p99_us", r.p99_us},
                    {"requests_ok", static_cast<double>(r.tallies.ok)},
                    {"requests_busy", static_cast<double>(r.tallies.busy)},
                    {"requests_deadline",
                     static_cast<double>(r.tallies.deadline)},
                    {"requests_error", static_cast<double>(r.tallies.errors)},
                    {"mismatches", static_cast<double>(r.tallies.mismatches)}};
  return entry;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags;
  bench::DefineCommonFlags(&flags);
  flags.Define("density", "0.01", "target density");
  flags.Define("max_distance", "1",
               "attack depth n; also the tier's slice halo depth");
  flags.Define("shards", "1,2,4", "comma-separated shard counts to sweep");
  flags.Define("connections", "4", "concurrent client connections");
  flags.Define("duration_sec", "3", "seconds of load per configuration");
  flags.Define("rate", "0",
               "open-loop total requests/sec across all connections "
               "(0 = closed loop)");
  flags.Define("shard_workers", "2", "worker pool size of each shard server");
  flags.Define("coordinator_workers", "4", "coordinator worker pool size");
  flags.Define("queue_capacity", "256", "coordinator admission queue bound");
  flags.Define("json", "", "also write machine-readable results to this path");
  flags.Define("host", "127.0.0.1", "external mode: server address");
  flags.Define("port", "0",
               "external mode: drive an already-running server on this "
               "port instead of self-hosting a tier");
  flags.Define("target_ids", "0",
               "external mode: cycle target ids [0, N) (0 = --target_size)");
  flags.Define("verify_target", "",
               "external mode: published graph file for the differential "
               "guard (with --verify_aux)");
  flags.Define("verify_aux", "",
               "external mode: auxiliary graph file for the differential "
               "guard");
  bench::ParseFlagsOrDie(&flags, argc, argv);

  const int n = static_cast<int>(flags.GetInt("max_distance"));
  const auto connections = static_cast<size_t>(flags.GetInt("connections"));
  const double duration_sec = flags.GetDouble("duration_sec");
  const double rate = flags.GetDouble("rate");
  const char* mode = rate > 0.0 ? "open_loop" : "closed_loop";

  // --- external mode: drive a server someone else started. ---------------
  if (flags.GetInt("port") != 0) {
    size_t num_targets = static_cast<size_t>(flags.GetInt("target_ids"));
    if (num_targets == 0) {
      num_targets = static_cast<size_t>(flags.GetInt("target_size"));
    }
    std::vector<ExpectedAnswer> expected;
    bool verify = false;
    if (!flags.GetString("verify_target").empty()) {
      auto target = hin::LoadGraphAuto(flags.GetString("verify_target"));
      auto aux = hin::LoadGraphAuto(flags.GetString("verify_aux"));
      if (!target.ok() || !aux.ok()) {
        std::fprintf(stderr, "verify graphs failed to load: %s\n",
                     (!target.ok() ? target.status() : aux.status())
                         .ToString()
                         .c_str());
        return 1;
      }
      num_targets = std::min(num_targets, target.value().num_vertices());
      expected = BuildReference(target.value(), aux.value(),
                                bench::AttackConfig(false, flags), n);
      verify = true;
    }
    const RunResult r = RunLoad(
        flags.GetString("host"), static_cast<uint16_t>(flags.GetInt("port")),
        num_targets, n, connections, duration_sec, rate,
        verify ? &expected : nullptr, "bench/load_gen/external");
    PrintRun("external", r);
    if (verify && r.tallies.mismatches > 0) {
      std::fprintf(stderr, "DIFFERENTIAL FAILURE: %llu responses diverged "
                   "from the unsharded reference\n",
                   static_cast<unsigned long long>(r.tallies.mismatches));
      return 1;
    }
    if (r.tallies.ok == 0) {
      std::fprintf(stderr, "no successful responses\n");
      return 1;
    }
    const std::string json_path = flags.GetString("json");
    if (!json_path.empty()) {
      std::vector<bench::BenchJsonEntry> entries;
      entries.push_back(JsonEntry(std::string("external/") + mode, r, 0.0));
      auto context = bench::CommonBenchContext(
          flags, {{"mode", mode},
                  {"max_distance", flags.GetString("max_distance")},
                  {"connections", flags.GetString("connections")},
                  {"verified", verify ? "true" : "false"}});
      if (!bench::WriteBenchJson(json_path, entries, context)) return 1;
    }
    return 0;
  }

  // --- self-hosted sweep: dataset, reference, then one tier per count. ----
  std::vector<size_t> shard_counts;
  const std::string shards_flag = flags.GetString("shards");
  for (const auto& field : util::Split(shards_flag, ',')) {
    auto parsed = util::ParseUint64(util::Trim(field));
    if (!parsed.ok() || parsed.value() == 0) {
      std::fprintf(stderr, "bad --shards entry: %s\n",
                   std::string(field).c_str());
      return 2;
    }
    shard_counts.push_back(parsed.value());
  }

  util::Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  anon::KddAnonymizer anonymizer;
  auto dataset = eval::BuildExperimentDataset(
      bench::AuxConfigFromFlags(flags),
      bench::TargetSpecFromFlags(flags, flags.GetDouble("density")),
      synth::GrowthConfig{}, anonymizer, /*strip_majority=*/false, &rng);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  const hin::Graph& target = dataset.value().target;
  const hin::Graph& aux = dataset.value().auxiliary;
  const core::DehinConfig attack = bench::AttackConfig(false, flags);

  std::printf("building unsharded reference answers for %zu targets "
              "(distance %d, aux %zu vertices)...\n",
              target.num_vertices(), n, aux.num_vertices());
  const std::vector<ExpectedAnswer> expected =
      BuildReference(target, aux, attack, n);

  std::printf("%s load, %zu connections, %.1fs per shard count%s\n\n", mode,
              connections, duration_sec,
              rate > 0.0
                  ? (" @ " + util::FormatDouble(rate, 0) + " req/s").c_str()
                  : "");
  std::vector<bench::BenchJsonEntry> entries;
  for (size_t num_shards : shard_counts) {
    shard::ShardTierConfig tier_config;
    tier_config.num_shards = num_shards;
    tier_config.halo_depth = n;
    tier_config.shard_server.num_workers =
        static_cast<size_t>(flags.GetInt("shard_workers"));
    tier_config.shard_server.default_max_distance = n;
    tier_config.shard_server.dehin = attack;
    tier_config.shard_server.dehin.max_distance = n;
    tier_config.coordinator.num_workers =
        static_cast<size_t>(flags.GetInt("coordinator_workers"));
    tier_config.coordinator.queue_capacity =
        static_cast<size_t>(flags.GetInt("queue_capacity"));
    tier_config.coordinator.default_max_distance = n;
    tier_config.coordinator.port = 0;
    shard::ShardTier tier(&target, &aux, tier_config);
    const util::Status started = tier.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "tier start failed at %zu shards: %s\n",
                   num_shards, started.ToString().c_str());
      return 1;
    }
    const std::string probe_name =
        "bench/load_gen/shards_" + std::to_string(num_shards);
    const RunResult r =
        RunLoad("127.0.0.1", tier.port(), target.num_vertices(), n,
                connections, duration_sec, rate, &expected,
                probe_name.c_str());
    tier.Shutdown();
    const std::string label = "shards=" + std::to_string(num_shards);
    PrintRun(label.c_str(), r);
    if (r.tallies.mismatches > 0) {
      std::fprintf(stderr, "DIFFERENTIAL FAILURE: %llu merged answers "
                   "diverged from the unsharded scan at %zu shards\n",
                   static_cast<unsigned long long>(r.tallies.mismatches),
                   num_shards);
      return 1;
    }
    if (r.tallies.ok == 0) {
      std::fprintf(stderr, "no successful responses at %zu shards\n",
                   num_shards);
      return 1;
    }
    entries.push_back(JsonEntry(label + "/" + mode, r,
                                static_cast<double>(num_shards)));
  }
  std::printf("\nall shard counts passed the differential guard "
              "(bit-identical to the unsharded scan)\n");

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    auto context = bench::CommonBenchContext(
        flags,
        {{"mode", mode},
         {"max_distance", flags.GetString("max_distance")},
         {"shards_swept", flags.GetString("shards")},
         {"connections", flags.GetString("connections")},
         {"shard_workers", flags.GetString("shard_workers")},
         {"verified", "true"}});
    if (!bench::WriteBenchJson(json_path, entries, context)) return 1;
    std::printf("json written to %s\n", json_path.c_str());
  }
  return 0;
}
