// Google-benchmark micro-benchmarks for the performance-critical pieces:
// graph generation, text and snapshot loads, the CSR build, Hopcroft-Karp
// vs. the Kuhn reference matcher, signature computation,
// candidate-index construction/lookup, the DeHIN
// per-query cost by max distance, and the end-to-end DeHIN evaluation the
// acceleration layers target.
//
// Beyond the stock --benchmark_* flags this binary accepts:
//   --aux_users N        auxiliary network size (default 20000)
//   --target_size N      planted target size (default 1000)
//   --no-prefilter       ablate acceleration Layer 1 (neighborhood stats)
//   --no-shared-cache    ablate acceleration Layer 2 (cross-call cache)
//   --dominance-kernel K Layer-1 dominance kernel: auto|scalar|sse2|avx2
//   --json PATH          write per-benchmark wall time + counters as JSON
//                        (the resolved kernel lands in its "context" block)
// (hyphens and underscores are interchangeable in flag names).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/candidate_index.h"
#include "core/dehin.h"
#include "core/dominance_kernels.h"
#include "core/signature.h"
#include "eval/metrics.h"
#include "hin/graph_builder.h"
#include "hin/io.h"
#include "hin/snapshot.h"
#include "hin/subgraph.h"
#include "hin/tqq_schema.h"
#include "matching/hopcroft_karp.h"
#include "synth/planted_target.h"
#include "synth/tqq_generator.h"
#include "util/random.h"

namespace hinpriv {
namespace {

struct MicroConfig {
  size_t aux_users = 20000;
  size_t target_size = 1000;
  bool no_prefilter = false;
  bool no_shared_cache = false;
  core::DominanceKernel dominance_kernel = core::DominanceKernel::kAuto;
  std::string json_path;
};

MicroConfig& Config() {
  static MicroConfig config;
  return config;
}

core::DehinConfig DehinConfigFromFlags() {
  core::DehinConfig config;
  config.match = core::DefaultTqqMatchOptions();
  config.use_prefilter = !Config().no_prefilter;
  config.use_shared_cache = !Config().no_shared_cache;
  config.dominance_kernel = Config().dominance_kernel;
  return config;
}

const hin::Graph& SharedNetwork() {
  static const hin::Graph* graph = [] {
    synth::TqqConfig config;
    config.num_users = Config().aux_users;
    util::Rng rng(1);
    auto built = synth::GenerateTqqNetwork(config, &rng);
    return new hin::Graph(std::move(built).value());
  }();
  return *graph;
}

const synth::PlantedDataset& SharedDataset() {
  static const synth::PlantedDataset* dataset = [] {
    synth::TqqConfig config;
    config.num_users = Config().aux_users;
    synth::PlantedTargetSpec spec;
    spec.target_size = Config().target_size;
    spec.density = 0.01;
    util::Rng rng(2);
    auto built =
        synth::BuildPlantedDataset(config, spec, synth::GrowthConfig{}, &rng);
    return new synth::PlantedDataset(std::move(built).value());
  }();
  return *dataset;
}

matching::BipartiteGraph RandomBipartite(size_t n, double edge_prob,
                                         uint64_t seed) {
  util::Rng rng(seed);
  matching::BipartiteGraph g(n, n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      if (rng.Bernoulli(edge_prob)) g.AddEdge(i, j);
    }
  }
  return g;
}

void BM_GenerateNetwork(benchmark::State& state) {
  synth::TqqConfig config;
  config.num_users = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    util::Rng rng(3);
    auto graph = synth::GenerateTqqNetwork(config, &rng);
    benchmark::DoNotOptimize(graph.value().num_edges());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateNetwork)->Arg(1000)->Arg(10000)->Arg(50000);

// --- Snapshot warm-start: map + O(V) structural validation ---------------
// Loads SharedNetwork() persisted once per process; the file is in the
// page cache, so this is the cost of mapping and validating it.

const std::string& SharedSnapshotFile() {
  static const std::string* path = [] {
    auto* p = new std::string("/tmp/hinpriv_micro_bench.snap");
    auto status = hin::SaveGraphSnapshot(SharedNetwork(), *p);
    if (!status.ok()) {
      std::fprintf(stderr, "save snapshot: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    return p;
  }();
  return *path;
}

void BM_SnapshotLoad(benchmark::State& state) {
  const std::string& path = SharedSnapshotFile();
  for (auto _ : state) {
    auto graph = hin::LoadGraphAuto(path);
    benchmark::DoNotOptimize(graph.value().num_edges());
  }
  state.SetItemsProcessed(state.iterations() * SharedNetwork().num_edges());
}
BENCHMARK(BM_SnapshotLoad);

// --- Text load and CSR build: the cold path from a text dump -------------
// The same network in the text format, parsed line by line and built.

const std::string& SharedTextFile() {
  static const std::string* path = [] {
    auto* p = new std::string("/tmp/hinpriv_micro_bench.graph");
    auto status = hin::SaveGraphToFile(SharedNetwork(), *p);
    if (!status.ok()) {
      std::fprintf(stderr, "save text: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    return p;
  }();
  return *path;
}

void BM_TextLoad(benchmark::State& state) {
  const std::string& path = SharedTextFile();
  for (auto _ : state) {
    auto graph = hin::LoadGraphAuto(path);
    benchmark::DoNotOptimize(graph.value().num_edges());
  }
  state.SetItemsProcessed(state.iterations() * SharedNetwork().num_edges());
}
BENCHMARK(BM_TextLoad)->Unit(benchmark::kMillisecond);

// GraphBuilder::Build() alone over the network's edges, staged in CSR
// order as the text loader stages them (arg 0) or shuffled (arg 1).
void BM_GraphBuild(benchmark::State& state) {
  const hin::Graph& graph = SharedNetwork();
  struct Row {
    hin::LinkTypeId link;
    hin::VertexId src;
    hin::Edge edge;
  };
  std::vector<Row> rows;
  for (hin::LinkTypeId lt = 0; lt < graph.num_link_types(); ++lt) {
    for (hin::VertexId v = 0; v < graph.num_vertices(); ++v) {
      for (const hin::Edge& e : graph.OutEdges(lt, v)) {
        rows.push_back({lt, v, e});
      }
    }
  }
  if (state.range(0) == 1) {
    util::Rng rng(4);
    rng.Shuffle(&rows);
  }
  for (auto _ : state) {
    state.PauseTiming();
    hin::GraphBuilder builder(graph.schema());
    if (!hin::CopyVerticesWithAttributes(graph, &builder).ok()) std::abort();
    for (const Row& r : rows) {
      if (!builder.AddEdge(r.src, r.edge.neighbor, r.link, r.edge.strength)
               .ok()) {
        std::abort();
      }
    }
    state.ResumeTiming();
    auto built = std::move(builder).Build();
    benchmark::DoNotOptimize(built.value().num_edges());
  }
  state.SetItemsProcessed(state.iterations() * graph.num_edges());
}
BENCHMARK(BM_GraphBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_HopcroftKarp(benchmark::State& state) {
  const auto g = RandomBipartite(static_cast<size_t>(state.range(0)),
                                 8.0 / static_cast<double>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::HopcroftKarpMaximumMatching(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_HopcroftKarp)->Arg(64)->Arg(512)->Arg(4096);

void BM_KuhnMatching(benchmark::State& state) {
  const auto g = RandomBipartite(static_cast<size_t>(state.range(0)),
                                 8.0 / static_cast<double>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::KuhnMaximumMatching(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_KuhnMatching)->Arg(64)->Arg(512)->Arg(4096);

void BM_SignatureComputation(benchmark::State& state) {
  const hin::Graph& graph = SharedNetwork();
  core::SignatureOptions options;
  options.attributes = {hin::kTagCountAttr};
  options.link_types = core::AllLinkTypes(graph);
  const int distance = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ComputeSignatures(graph, options, distance));
  }
  state.SetItemsProcessed(state.iterations() * graph.num_vertices());
}
BENCHMARK(BM_SignatureComputation)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_CandidateIndexBuild(benchmark::State& state) {
  const hin::Graph& graph = SharedNetwork();
  const core::MatchOptions options = core::DefaultTqqMatchOptions();
  for (auto _ : state) {
    core::CandidateIndex index(graph, options);
    benchmark::DoNotOptimize(index.num_buckets());
  }
  state.SetItemsProcessed(state.iterations() * graph.num_vertices());
}
BENCHMARK(BM_CandidateIndexBuild);

void BM_CandidateLookup(benchmark::State& state) {
  const hin::Graph& graph = SharedNetwork();
  const core::MatchOptions options = core::DefaultTqqMatchOptions();
  const core::CandidateIndex index(graph, options);
  hin::VertexId v = 0;
  for (auto _ : state) {
    size_t count = 0;
    index.ForEachCandidate(graph, v, [&](hin::VertexId) { ++count; });
    benchmark::DoNotOptimize(count);
    v = (v + 1) % graph.num_vertices();
  }
}
BENCHMARK(BM_CandidateLookup);

void BM_NeighborhoodStatsBuild(benchmark::State& state) {
  const hin::Graph& graph = SharedNetwork();
  const core::MatchOptions options = core::DefaultTqqMatchOptions();
  for (auto _ : state) {
    core::NeighborhoodStats stats(graph, options.link_types,
                                  options.use_in_edges);
    benchmark::DoNotOptimize(stats.num_slots());
  }
  state.SetItemsProcessed(state.iterations() * graph.num_vertices());
}
BENCHMARK(BM_NeighborhoodStatsBuild);

// Raw dominance-kernel throughput across tiers: scalar vs. every SIMD tier
// the CPU supports, on sorted spans sized like real prefilter inputs
// (arg = target span size; aux spans are 2x). Pairs are built to pass, so
// the early-exit never fires and the full scan cost is measured.
void BM_StrengthDominance(benchmark::State& state) {
  const auto kernels = core::SupportedDominanceKernels();
  const size_t tier = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  if (tier >= kernels.size()) {
    state.SkipWithError("kernel tier unsupported on this CPU");
    return;
  }
  const core::ResolvedDominanceKernel& kernel = kernels[tier];
  util::Rng rng(5);
  const size_t m = 2 * k + 1;
  std::vector<hin::Strength> target(k);
  std::vector<hin::Strength> aux(m);
  for (auto& s : target) s = static_cast<hin::Strength>(rng.UniformU64(100));
  // Every aux strength dominates every target strength: worst case scan.
  for (auto& s : aux) {
    s = static_cast<hin::Strength>(100 + rng.UniformU64(100));
  }
  std::sort(target.begin(), target.end());
  std::sort(aux.begin(), aux.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.growth_aware(target.data(), target.size(),
                                                 aux.data(), aux.size()));
    benchmark::DoNotOptimize(
        kernel.exact(target.data(), target.size(), aux.data(), aux.size()));
  }
  state.SetLabel(kernel.name);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(k));
}
BENCHMARK(BM_StrengthDominance)
    ->ArgsProduct({{0, 1, 2}, {8, 64, 1024}});

// Steady-state per-query latency on one long-lived Dehin: with the shared
// cache enabled, repeat queries amortize toward cache lookups — ablate
// with --no-shared-cache / --no-prefilter to see each layer's share.
void BM_DehinQuery(benchmark::State& state) {
  const synth::PlantedDataset& dataset = SharedDataset();
  static const core::Dehin* dehin =
      new core::Dehin(&dataset.auxiliary, DehinConfigFromFlags());
  const int distance = static_cast<int>(state.range(0));
  hin::VertexId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dehin->Deanonymize(dataset.target, v, distance));
    v = (v + 1) % dataset.target.num_vertices();
  }
}
BENCHMARK(BM_DehinQuery)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_DehinQueryNoIndex(benchmark::State& state) {
  const synth::PlantedDataset& dataset = SharedDataset();
  core::DehinConfig config = DehinConfigFromFlags();
  config.use_candidate_index = false;
  static const core::Dehin* dehin =
      new core::Dehin(&dataset.auxiliary, config);
  hin::VertexId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dehin->Deanonymize(dataset.target, v, 1));
    v = (v + 1) % dataset.target.num_vertices();
  }
}
BENCHMARK(BM_DehinQueryNoIndex);

// End-to-end DeHIN evaluation at distance n: a fresh Dehin per iteration
// (cold caches), scored over every target vertex — the EvaluateAttack path
// the acceleration layers were built for. Counters report the layers'
// work: prefilter_reject_rate is the fraction of LinkMatch misses the
// Layer-1 stats rejected before any bipartite work; cache_hit_rate is the
// fraction of LinkMatch calls answered by the Layer-2 cache.
void BM_DehinEvaluate(benchmark::State& state) {
  const synth::PlantedDataset& dataset = SharedDataset();
  const int distance = static_cast<int>(state.range(0));
  core::DehinStats last;
  for (auto _ : state) {
    core::Dehin dehin(&dataset.auxiliary, DehinConfigFromFlags());
    const auto metrics = eval::EvaluateAttack(dehin, dataset.target,
                                              dataset.target_to_aux, distance);
    benchmark::DoNotOptimize(metrics.num_containing_truth);
    last = metrics.dehin_stats;
  }
  state.counters["prefilter_reject_rate"] = last.PrefilterRejectRate();
  state.counters["cache_hit_rate"] = last.CacheHitRate();
  state.SetItemsProcessed(state.iterations() *
                          dataset.target.num_vertices());
}
BENCHMARK(BM_DehinEvaluate)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_InducedSubgraph(benchmark::State& state) {
  const hin::Graph& graph = SharedNetwork();
  for (auto _ : state) {
    state.PauseTiming();
    util::Rng rng(state.iterations());
    state.ResumeTiming();
    auto sub = hin::SampleInducedSubgraph(graph, 1000, &rng);
    benchmark::DoNotOptimize(sub.value().graph.num_edges());
  }
}
BENCHMARK(BM_InducedSubgraph);

void BM_StripMajorityStrengthLinks(benchmark::State& state) {
  const synth::PlantedDataset& dataset = SharedDataset();
  for (auto _ : state) {
    auto stripped = core::StripMajorityStrengthLinks(dataset.target);
    benchmark::DoNotOptimize(stripped.value().num_edges());
  }
}
BENCHMARK(BM_StripMajorityStrengthLinks);

// Console output plus capture of every run for the --json report.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      bench::BenchJsonEntry entry;
      entry.name = run.benchmark_name();
      entry.real_time_s =
          run.iterations == 0
              ? 0.0
              : run.real_accumulated_time /
                    static_cast<double>(run.iterations);
      for (const auto& [name, counter] : run.counters) {
        entry.counters.emplace_back(name, counter.value);
      }
      entries_.push_back(std::move(entry));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<bench::BenchJsonEntry>& entries() const {
    return entries_;
  }

 private:
  std::vector<bench::BenchJsonEntry> entries_;
};

// Consumes this binary's own flags from argv (normalizing '-' to '_' in
// flag names) and leaves the rest for benchmark::Initialize.
void ExtractOwnFlags(int* argc, char** argv) {
  MicroConfig& config = Config();
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string_view arg(argv[i]);
    std::string name;
    std::string value;
    bool has_value = false;
    if (arg.rfind("--", 0) == 0) {
      arg.remove_prefix(2);
      const size_t eq = arg.find('=');
      if (eq != std::string_view::npos) {
        name = std::string(arg.substr(0, eq));
        value = std::string(arg.substr(eq + 1));
        has_value = true;
      } else {
        name = std::string(arg);
      }
      for (char& c : name) {
        if (c == '-') c = '_';
      }
    }
    auto take_value = [&]() -> std::string {
      if (has_value) return value;
      // A following "--flag" is the next flag, not this one's value.
      if (i + 1 < *argc &&
          std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        return argv[++i];
      }
      std::fprintf(stderr, "%s: error: flag --%s requires a value\n", argv[0],
                   name.c_str());
      std::exit(1);
    };
    auto take_count = [&]() -> size_t {
      const std::string v = take_value();
      char* end = nullptr;
      const long long n = std::strtoll(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0' || n <= 0) {
        std::fprintf(stderr, "%s: error: invalid value '%s' for flag --%s\n",
                     argv[0], v.c_str(), name.c_str());
        std::exit(1);
      }
      return static_cast<size_t>(n);
    };
    if (name == "json") {
      config.json_path = take_value();
    } else if (name == "aux_users") {
      config.aux_users = take_count();
    } else if (name == "target_size") {
      config.target_size = take_count();
    } else if (name == "no_prefilter") {
      config.no_prefilter = true;
    } else if (name == "no_shared_cache") {
      config.no_shared_cache = true;
    } else if (name == "dominance_kernel") {
      const std::string v = take_value();
      if (!core::ParseDominanceKernel(v, &config.dominance_kernel)) {
        std::fprintf(stderr,
                     "%s: error: invalid value '%s' for flag "
                     "--dominance_kernel (want auto|scalar|sse2|avx2)\n",
                     argv[0], v.c_str());
        std::exit(1);
      }
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

}  // namespace
}  // namespace hinpriv

int main(int argc, char** argv) {
  hinpriv::ExtractOwnFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  hinpriv::JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const std::string& json_path = hinpriv::Config().json_path;
  if (!json_path.empty()) {
    auto context =
        hinpriv::bench::KernelContext(hinpriv::Config().dominance_kernel);
    context.emplace_back("aux_users",
                         std::to_string(hinpriv::Config().aux_users));
    context.emplace_back("target_size",
                         std::to_string(hinpriv::Config().target_size));
    if (!hinpriv::bench::WriteBenchJson(json_path, reporter.entries(),
                                        context)) {
      return 1;
    }
  }
  return 0;
}
