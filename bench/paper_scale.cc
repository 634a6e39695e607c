// Paper-scale storage benchmark: synthesizes an auxiliary network at the
// size of the paper's real crawl (2,320,895 t.qq users, Section 6.1),
// persists it as a HINPRIVS snapshot, and times the warm-start path
// (hin::LoadGraphAuto maps the file: O(V) structural validation, edge
// pages faulted lazily). Reports file size, load wall time, resident-set
// growth (/proc/self/status VmRSS), and end-to-end attack queries/sec over
// the mapped graph, then writes the machine-readable BENCH_paper_scale.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "anon/kdd_anonymizer.h"
#include "bench/bench_common.h"
#include "core/dehin.h"
#include "hin/io.h"
#include "hin/snapshot.h"
#include "synth/planted_target.h"
#include "util/random.h"
#include "util/table_printer.h"

namespace {

using namespace hinpriv;

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Resident set size from /proc/self/status (VmRSS), in bytes. Linux-only,
// like the mmap loader itself; returns 0 if the field is missing.
size_t CurrentRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

double Mb(size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

size_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<size_t>(in.tellg()) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags;
  // Deliberately not DefineCommonFlags: this bench exists to measure the
  // paper-scale point, so --aux_users defaults to the crawl size instead of
  // the attack-quality benches' 50k. The names stay identical so
  // AttackConfig / CommonBenchContext and sweep scripts work unchanged.
  flags.Define("aux_users", "2320895",
               "users in the auxiliary network (paper: 2,320,895)");
  flags.Define("target_size", "1000",
               "users per published target graph (paper: 1000)");
  flags.Define("seed", "20140324", "rng seed (EDBT 2014 opening day)");
  flags.Define("no_prefilter", "false",
               "disable the neighborhood-stats prefilter (Layer 1)");
  flags.Define("no_shared_cache", "false",
               "disable the cross-call match cache (Layer 2)");
  flags.Define("dominance_kernel", "auto",
               "Layer-1 strength-dominance kernel: auto|scalar|sse2|avx2");
  flags.Define("density", "0.01", "planted target density");
  flags.Define("queries", "200", "attack queries to time against the mapped aux");
  flags.Define("workdir", "/tmp", "directory for the generated snapshot files");
  flags.Define("keep_files", "false", "leave the .snap file behind");
  flags.Define("json", "BENCH_paper_scale.json",
               "machine-readable results path (empty to skip)");
  bench::ParseFlagsOrDie(&flags, argc, argv);

  const size_t num_users = static_cast<size_t>(flags.GetInt("aux_users"));
  const int num_queries = flags.GetInt("queries");
  util::Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));

  std::printf("Paper-scale storage bench: %zu auxiliary users (paper: "
              "2,320,895)\n\n",
              num_users);
  std::vector<bench::BenchJsonEntry> entries;

  // --- 1. Synthesize the dataset -----------------------------------------
  synth::TqqConfig config = bench::AuxConfigFromFlags(flags);
  WallTimer timer;
  auto dataset = synth::BuildPlantedDataset(
      config, bench::TargetSpecFromFlags(flags, flags.GetDouble("density")),
      synth::GrowthConfig{}, &rng);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  const double generate_s = timer.Seconds();
  const hin::Graph& aux = dataset.value().auxiliary;
  std::printf("generated: %zu vertices, %zu edges in %.1fs\n",
              aux.num_vertices(), aux.num_edges(), generate_s);
  entries.push_back({"generate", generate_s,
                     {{"vertices", static_cast<double>(aux.num_vertices())},
                      {"edges", static_cast<double>(aux.num_edges())}}});

  // --- 2. Persist as a snapshot -----------------------------------------
  const std::string workdir = flags.GetString("workdir");
  const std::string snap_path = workdir + "/hinpriv_paper_scale.snap";
  timer.Reset();
  if (auto s = hin::SaveGraphSnapshot(aux, snap_path); !s.ok()) {
    std::fprintf(stderr, "save snapshot: %s\n", s.ToString().c_str());
    return 1;
  }
  const double save_snap_s = timer.Seconds();
  const size_t snap_bytes = FileBytes(snap_path);
  entries.push_back(
      {"save_snapshot", save_snap_s, {{"file_mb", Mb(snap_bytes)}}});

  // --- 3. Warm start: HINPRIVS mmap --------------------------------------
  // The file was just written, so the page cache is warm; what this
  // isolates is the cost of mapping and validating it.
  const size_t rss_before_snap = CurrentRssBytes();
  timer.Reset();
  auto mapped = hin::LoadGraphAuto(snap_path);
  const double load_snap_s = timer.Seconds();
  if (!mapped.ok()) {
    std::fprintf(stderr, "load snapshot: %s\n",
                 mapped.status().ToString().c_str());
    return 1;
  }
  const double snap_rss_mb = Mb(CurrentRssBytes() - rss_before_snap);
  std::printf("warm  (HINPRIVS mmap): %.3fs, +%.0f MB RSS\n", load_snap_s,
              snap_rss_mb);
  entries.push_back(
      {"load_snapshot_warm", load_snap_s, {{"rss_mb", snap_rss_mb}}});

  // --- 4. Attack queries against the mapped auxiliary --------------------
  anon::KddAnonymizer anonymizer;
  auto published = anonymizer.Anonymize(dataset.value().target, &rng);
  if (!published.ok()) {
    std::fprintf(stderr, "anonymize: %s\n",
                 published.status().ToString().c_str());
    return 1;
  }
  timer.Reset();
  core::Dehin dehin(&mapped.value(), bench::AttackConfig(false, flags));
  const double setup_s = timer.Seconds();
  entries.push_back({"attack_setup", setup_s, {}});

  const hin::Graph& target = published.value().graph;
  const auto& to_original = published.value().to_original;
  const auto& target_to_aux = dataset.value().target_to_aux;
  size_t exact = 0;
  size_t total_candidates = 0;
  const size_t queries =
      std::min<size_t>(static_cast<size_t>(num_queries), target.num_vertices());
  bench::WindowedLatencyProbe latency_probe("bench/query_latency_us");
  timer.Reset();
  for (size_t q = 0; q < queries; ++q) {
    const auto vt = static_cast<hin::VertexId>(q);
    const auto query_start = std::chrono::steady_clock::now();
    const auto candidates = dehin.Deanonymize(target, vt);
    latency_probe.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - query_start)
            .count()));
    total_candidates += candidates.size();
    const hin::VertexId truth = target_to_aux[to_original[vt]];
    if (candidates.size() == 1 && candidates[0] == truth) ++exact;
  }
  const double query_s = timer.Seconds();
  const double qps = query_s > 0 ? static_cast<double>(queries) / query_s : 0.0;
  const double precision =
      queries > 0 ? static_cast<double>(exact) / static_cast<double>(queries)
                  : 0.0;
  const obs::HistogramSnapshot latency = latency_probe.Snapshot();
  std::printf("attack: %zu queries in %.1fs (%.1f q/s), precision %s%%, "
              "latency p50/p95/p99 = %.0f/%.0f/%.0f us\n\n",
              queries, query_s, qps, bench::Pct(precision).c_str(),
              latency.Percentile(50.0), latency.Percentile(95.0),
              latency.Percentile(99.0));
  entries.push_back(
      {"attack_queries",
       query_s,
       {{"queries", static_cast<double>(queries)},
        {"queries_per_s", qps},
        {"precision", precision},
        {"latency_p50_us", latency.Percentile(50.0)},
        {"latency_p95_us", latency.Percentile(95.0)},
        {"latency_p99_us", latency.Percentile(99.0)},
        {"mean_candidates",
         queries > 0 ? static_cast<double>(total_candidates) /
                           static_cast<double>(queries)
                     : 0.0}}});

  util::TablePrinter table({"phase", "seconds", "detail"});
  table.AddRow({"generate", util::FormatDouble(generate_s, 1),
                std::to_string(aux.num_edges()) + " edges"});
  table.AddRow({"save snapshot", util::FormatDouble(save_snap_s, 2),
                util::FormatDouble(Mb(snap_bytes), 0) + " MB"});
  table.AddRow({"load snapshot (warm)", util::FormatDouble(load_snap_s, 3),
                "+" + util::FormatDouble(snap_rss_mb, 0) + " MB RSS"});
  table.AddRow({"attack queries", util::FormatDouble(query_s, 1),
                util::FormatDouble(qps, 1) + " q/s @ " +
                    bench::Pct(precision) + "% precision"});
  table.Print(std::cout);

  if (!flags.GetBool("keep_files")) std::remove(snap_path.c_str());

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty() &&
      !bench::WriteBenchJson(
          json_path, entries,
          bench::CommonBenchContext(
              flags, {{"density", flags.GetString("density")},
                      {"queries", flags.GetString("queries")}}))) {
    return 1;
  }
  return 0;
}
