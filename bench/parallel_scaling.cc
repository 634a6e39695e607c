// Thread-scaling study for the two parallel shapes the executor serves:
//
//   across-target — eval::EvaluateAttackParallel claims whole targets
//     dynamically (one task per target, shared match cache), started on a
//     worker of the pool so an N-thread row runs on N threads;
//   intra-query   — core::Dehin::DeanonymizeParallel fans a single
//     target's candidate scan out in grains, measured here as the summed
//     one-at-a-time latency over every target (the serving shape: one
//     query in flight, the pool accelerates it).
//
// Every configuration is differential-guarded against the serial
// reference: a run whose answers drift from --threads=1 aborts the bench,
// so the committed BENCH_parallel_scaling.json can only contain numbers
// produced by correct scans. Each measurement uses a fresh Dehin so the
// cross-call match cache of an earlier run cannot flatter a later one.

#include <cstdio>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "anon/kdd_anonymizer.h"
#include "bench/bench_common.h"
#include "eval/metrics.h"
#include "eval/parallel_metrics.h"
#include "exec/executor.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace {

// Order-sensitive digest of a candidate list sequence; two runs agree iff
// they produced identical vectors in identical target order.
uint64_t HashCandidates(uint64_t h, const std::vector<hinpriv::hin::VertexId>&
                                        candidates) {
  constexpr uint64_t kMul = 0x100000001b3ULL;
  h = (h ^ (candidates.size() + 0x9e3779b97f4a7c15ULL)) * kMul;
  for (auto v : candidates) h = (h ^ (v + 1)) * kMul;
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hinpriv;
  util::FlagParser flags;
  bench::DefineCommonFlags(&flags);
  flags.Define("density", "0.01", "target density");
  flags.Define("max_distance", "2", "neighbor distance n for every attack");
  flags.Define("threads", "1,2,4,8",
               "comma-separated worker counts to sweep");
  flags.Define("chunks_per_worker", "8",
               "adaptive-grain target: grains aimed per worker when a scan "
               "leaves the grain unset (exec::GrainPolicy)");
  flags.Define("max_grain", "8192",
               "upper clamp on the adaptive grain (iterations per claim)");
  flags.Define("grain_sweep", "",
               "comma-separated chunks_per_worker values to sweep on the "
               "intra-query path at the highest thread count (each run "
               "differential-guarded)");
  flags.Define("json", "", "also write machine-readable results to this path");
  bench::ParseFlagsOrDie(&flags, argc, argv);

  std::vector<size_t> thread_counts;
  // Split returns views into this string; it must outlive the loop.
  const std::string threads_flag = flags.GetString("threads");
  for (const auto& field : util::Split(threads_flag, ',')) {
    auto parsed = util::ParseUint64(util::Trim(field));
    if (!parsed.ok() || parsed.value() == 0) {
      std::fprintf(stderr, "bad --threads entry: %s\n",
                   std::string(field).c_str());
      return 2;
    }
    thread_counts.push_back(parsed.value());
  }

  const int n = static_cast<int>(flags.GetInt("max_distance"));
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
  const size_t num_targets = target.num_vertices();

  // Serial references for the differential guard and the speedup base.
  core::Dehin reference(&dataset.value().auxiliary,
                        bench::AttackConfig(false, flags));
  const eval::AttackMetrics serial_metrics = eval::EvaluateAttack(
      reference, target, dataset.value().ground_truth, n);
  uint64_t serial_hash = 0;
  {
    core::Dehin fresh(&dataset.value().auxiliary,
                      bench::AttackConfig(false, flags));
    for (hin::VertexId vt = 0; vt < num_targets; ++vt) {
      serial_hash = HashCandidates(serial_hash, fresh.Deanonymize(target, vt, n));
    }
  }

  obs::Counter* tasks_counter =
      obs::MetricsRegistry::Global().GetCounter("exec/tasks");
  obs::Counter* steals_counter =
      obs::MetricsRegistry::Global().GetCounter("exec/steals");

  std::printf("Parallel scaling, %zu targets x distance %d, aux %s users "
              "(host hardware_concurrency = %u)\n\n",
              num_targets, n, flags.GetString("aux_users").c_str(),
              std::thread::hardware_concurrency());
  util::TablePrinter table({"path", "threads", "time s", "speedup",
                            "exec tasks", "exec steals"});
  std::vector<bench::BenchJsonEntry> json_entries;
  double across_base_s = 0.0;
  double intra_base_s = 0.0;

  for (size_t threads : thread_counts) {
    // --- across-target: one task per target on a pool of `threads`. The
    // run starts on a worker of the pool, so the pool's workers are the
    // only threads doing attack work (a ParallelFor's caller joins in, so
    // starting it here would add this thread to the N).
    {
      core::Dehin dehin(&dataset.value().auxiliary,
                        bench::AttackConfig(false, flags));
      exec::Executor pool(threads);
      eval::ParallelEvalOptions options;
      options.executor = &pool;
      const uint64_t tasks0 = tasks_counter->Value();
      const uint64_t steals0 = steals_counter->Value();
      const auto start = std::chrono::steady_clock::now();
      std::promise<eval::AttackMetrics> done;
      std::future<eval::AttackMetrics> result = done.get_future();
      pool.Submit(
          [&] {
            done.set_value(eval::EvaluateAttackParallel(
                dehin, target, dataset.value().ground_truth, n, options));
          },
          exec::Priority::kHigh);
      const eval::AttackMetrics metrics = result.get();
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (metrics.num_evaluated != serial_metrics.num_evaluated ||
          metrics.precision != serial_metrics.precision ||
          metrics.mean_candidate_count !=
              serial_metrics.mean_candidate_count) {
        std::fprintf(stderr,
                     "DIFFERENTIAL FAILURE: across-target at %zu threads "
                     "diverged from serial\n",
                     threads);
        return 1;
      }
      if (across_base_s == 0.0) across_base_s = elapsed;
      const double speedup = across_base_s / elapsed;
      const double tasks = static_cast<double>(tasks_counter->Value() - tasks0);
      const double steals =
          static_cast<double>(steals_counter->Value() - steals0);
      table.AddRow({"across-target", std::to_string(threads),
                    util::FormatDouble(elapsed, 3),
                    util::FormatDouble(speedup, 2),
                    util::FormatDouble(tasks, 0),
                    util::FormatDouble(steals, 0)});
      bench::BenchJsonEntry entry;
      entry.name = "across_target/threads=" + std::to_string(threads);
      entry.real_time_s = elapsed;
      entry.counters = {{"threads", static_cast<double>(threads)},
                        {"speedup_vs_1thread", speedup},
                        {"exec_tasks", tasks},
                        {"exec_steals", steals},
                        {"precision", metrics.precision}};
      json_entries.push_back(std::move(entry));
    }

    // --- intra-query: targets served one at a time, each scan fanned out.
    {
      core::Dehin dehin(&dataset.value().auxiliary,
                        bench::AttackConfig(false, flags));
      exec::Executor pool(threads);
      core::Dehin::ParallelScanOptions scan;
      scan.executor = &pool;
      scan.grain_policy.chunks_per_worker =
          static_cast<size_t>(flags.GetInt("chunks_per_worker"));
      scan.grain_policy.max_grain =
          static_cast<size_t>(flags.GetInt("max_grain"));
      const uint64_t tasks0 = tasks_counter->Value();
      const uint64_t steals0 = steals_counter->Value();
      uint64_t hash = 0;
      const auto start = std::chrono::steady_clock::now();
      for (hin::VertexId vt = 0; vt < num_targets; ++vt) {
        auto result = dehin.DeanonymizeParallel(target, vt, n, scan);
        if (!result.ok()) {
          std::fprintf(stderr, "scan failed at vt=%u: %s\n", vt,
                       result.status().ToString().c_str());
          return 1;
        }
        hash = HashCandidates(hash, result.value());
      }
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (hash != serial_hash) {
        std::fprintf(stderr,
                     "DIFFERENTIAL FAILURE: intra-query at %zu threads "
                     "diverged from serial\n",
                     threads);
        return 1;
      }
      if (intra_base_s == 0.0) intra_base_s = elapsed;
      const double speedup = intra_base_s / elapsed;
      const double tasks = static_cast<double>(tasks_counter->Value() - tasks0);
      const double steals =
          static_cast<double>(steals_counter->Value() - steals0);
      table.AddRow({"intra-query", std::to_string(threads),
                    util::FormatDouble(elapsed, 3),
                    util::FormatDouble(speedup, 2),
                    util::FormatDouble(tasks, 0),
                    util::FormatDouble(steals, 0)});
      bench::BenchJsonEntry entry;
      entry.name = "intra_query/threads=" + std::to_string(threads);
      entry.real_time_s = elapsed;
      entry.counters = {{"threads", static_cast<double>(threads)},
                        {"speedup_vs_1thread", speedup},
                        {"exec_tasks", tasks},
                        {"exec_steals", steals}};
      json_entries.push_back(std::move(entry));
    }
  }
  // --- grain sweep: intra-query path at the highest thread count, one run
  // per chunks_per_worker setting. Finer grains cost more claims (exec
  // tasks); coarser ones starve the tail — the sweep makes the tradeoff
  // measurable instead of folklore.
  const std::string grain_sweep_flag = flags.GetString("grain_sweep");
  if (!grain_sweep_flag.empty()) {
    const size_t sweep_threads = thread_counts.back();
    for (const auto& field : util::Split(grain_sweep_flag, ',')) {
      auto parsed = util::ParseUint64(util::Trim(field));
      if (!parsed.ok() || parsed.value() == 0) {
        std::fprintf(stderr, "bad --grain_sweep entry: %s\n",
                     std::string(field).c_str());
        return 2;
      }
      const size_t chunks = parsed.value();
      core::Dehin dehin(&dataset.value().auxiliary,
                        bench::AttackConfig(false, flags));
      exec::Executor pool(sweep_threads);
      core::Dehin::ParallelScanOptions scan;
      scan.executor = &pool;
      scan.grain_policy.chunks_per_worker = chunks;
      scan.grain_policy.max_grain =
          static_cast<size_t>(flags.GetInt("max_grain"));
      const uint64_t tasks0 = tasks_counter->Value();
      uint64_t hash = 0;
      const auto start = std::chrono::steady_clock::now();
      for (hin::VertexId vt = 0; vt < num_targets; ++vt) {
        auto result = dehin.DeanonymizeParallel(target, vt, n, scan);
        if (!result.ok()) {
          std::fprintf(stderr, "grain-sweep scan failed at vt=%u: %s\n", vt,
                       result.status().ToString().c_str());
          return 1;
        }
        hash = HashCandidates(hash, result.value());
      }
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (hash != serial_hash) {
        std::fprintf(stderr,
                     "DIFFERENTIAL FAILURE: grain sweep at %zu chunks/worker "
                     "diverged from serial\n",
                     chunks);
        return 1;
      }
      const double tasks = static_cast<double>(tasks_counter->Value() - tasks0);
      table.AddRow({"grain c/w=" + std::to_string(chunks),
                    std::to_string(sweep_threads),
                    util::FormatDouble(elapsed, 3),
                    util::FormatDouble(intra_base_s / elapsed, 2),
                    util::FormatDouble(tasks, 0), "-"});
      bench::BenchJsonEntry entry;
      entry.name = "grain_sweep/chunks_per_worker=" + std::to_string(chunks);
      entry.real_time_s = elapsed;
      entry.counters = {{"threads", static_cast<double>(sweep_threads)},
                        {"chunks_per_worker", static_cast<double>(chunks)},
                        {"speedup_vs_1thread", intra_base_s / elapsed},
                        {"exec_tasks", tasks}};
      json_entries.push_back(std::move(entry));
    }
  }

  table.Print(std::cout);
  std::printf("\nall configurations passed the differential guard "
              "(bit-identical to serial)\n");

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    auto context = bench::CommonBenchContext(
        flags,
        {{"max_distance", flags.GetString("max_distance")},
         {"threads_swept", flags.GetString("threads")},
         {"chunks_per_worker", flags.GetString("chunks_per_worker")},
         {"max_grain", flags.GetString("max_grain")},
         {"grain_sweep", flags.GetString("grain_sweep")}});
    if (!bench::WriteBenchJson(json_path, json_entries, context)) return 1;
    std::printf("json written to %s\n", json_path.c_str());
  }
  return 0;
}
