#ifndef HINPRIV_BENCH_BENCH_COMMON_H_
#define HINPRIV_BENCH_BENCH_COMMON_H_

// Shared plumbing for the table/figure reproduction binaries. Each binary
// regenerates one table or figure of the paper's Section 6 on the synthetic
// t.qq substrate (see DESIGN.md for the substitution rationale): it prints
// the measured values next to the paper's published numbers so the *shape*
// comparison is immediate. Absolute values are not expected to match — the
// auxiliary network here is synthetic and (by default) smaller than the
// 2.3M-user original; pass --aux_users to scale up.

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dehin.h"
#include "core/matchers.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "obs/windowed.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace hinpriv::bench {

// Registers the flags every experiment binary shares. The cache ablation
// (--no-shared-cache; hyphens and underscores both accepted) turns off
// DeHIN's cross-call match cache, so its speedup is measurable in
// isolation.
inline void DefineCommonFlags(util::FlagParser* flags) {
  flags->Define("aux_users", "50000",
                "users in the base/auxiliary network (paper: 2,320,895)");
  flags->Define("target_size", "1000",
                "users per published target graph (paper: 1000)");
  flags->Define("seed", "20140324", "rng seed (EDBT 2014 opening day)");
  flags->Define("tsv", "false", "emit tab-separated output for plotting");
  flags->Define("no_shared_cache", "false",
                "disable the cross-call match cache (Layer 2)");
}

// Parses argv; on --help or error prints and exits.
inline void ParseFlagsOrDie(util::FlagParser* flags, int argc, char** argv) {
  const util::Status status = flags->Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags->Usage(argv[0]).c_str());
    std::exit(2);
  }
  if (flags->help_requested()) {
    std::printf("%s", flags->Usage(argv[0]).c_str());
    std::exit(0);
  }
}

inline synth::TqqConfig AuxConfigFromFlags(const util::FlagParser& flags) {
  synth::TqqConfig config;
  config.num_users = static_cast<size_t>(flags.GetInt("aux_users"));
  return config;
}

inline synth::PlantedTargetSpec TargetSpecFromFlags(
    const util::FlagParser& flags, double density) {
  synth::PlantedTargetSpec spec;
  spec.target_size = static_cast<size_t>(flags.GetInt("target_size"));
  spec.density = density;
  return spec;
}

// The attack configuration of Section 6: growth-aware t.qq matchers; the
// reconfigured variant (Section 6.2) adds the saturation fallback and is
// paired with majority-strength stripping by the caller.
inline core::DehinConfig AttackConfig(bool reconfigured) {
  core::DehinConfig config;
  config.match = core::DefaultTqqMatchOptions();
  if (reconfigured) config.saturation_fraction = 0.5;
  return config;
}

// Same, with the cache-ablation flag applied.
inline core::DehinConfig AttackConfig(bool reconfigured,
                                      const util::FlagParser& flags) {
  core::DehinConfig config = AttackConfig(reconfigured);
  config.use_shared_cache = !flags.GetBool("no_shared_cache");
  return config;
}

// Per-query latency percentiles through the same windowed-differencing
// machinery the resident service's stats verb uses: latencies recorded via
// Record() land in a registry histogram, and Snapshot() differences the
// registry against the baseline taken at construction, so the percentiles
// cover exactly this probe's lifetime — untouched by whatever the same
// process recorded into the histogram before (e.g. a warmup pass).
class WindowedLatencyProbe {
 public:
  explicit WindowedLatencyProbe(const char* name)
      : name_(name),
        histogram_(obs::MetricsRegistry::Global().GetHistogram(name)) {
    window_.SampleNow();  // baseline
  }

  void Record(uint64_t latency_us) { histogram_->Record(latency_us); }

  // The delta histogram since construction; call Percentile(50/95/99) on it.
  obs::HistogramSnapshot Snapshot() {
    window_.SampleNow();
    // A window wider than any run collapses to the baseline sample.
    return window_.HistogramWindow(name_, 1e12);
  }

 private:
  const char* name_;
  obs::Histogram* histogram_;
  obs::WindowedAggregator window_;
};

// --- machine-readable bench output ----------------------------------------

// One benchmark's result for the JSON perf log: wall time plus whatever
// counters the benchmark recorded (e.g. degree-check reject rate,
// match-cache hit rate).
struct BenchJsonEntry {
  std::string name;
  double real_time_s = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// What built and ran a bench, so every committed row says so: the core
// count (wall times depend on it — parallel scans, background page
// reclaim — so a perf trajectory is only meaningful between runs whose
// hardware_concurrency agrees), the CMake build type, and the git revision
// the build tree was configured at ("unknown" outside a checkout; a
// "-dirty" suffix marks uncommitted changes).
inline std::vector<std::pair<std::string, std::string>> BuildContext() {
  return {{"hardware_concurrency",
           std::to_string(std::thread::hardware_concurrency())},
          {"build_type", HINPRIV_BUILD_TYPE},
          {"git_revision", HINPRIV_GIT_REVISION}};
}

// The context facts every bench's --json output shares, so sweep tooling
// can rely on one schema: BuildContext() plus the common sizing flags.
// `extra` appends bench-specific pairs.
inline std::vector<std::pair<std::string, std::string>> CommonBenchContext(
    const util::FlagParser& flags,
    std::vector<std::pair<std::string, std::string>> extra = {}) {
  std::vector<std::pair<std::string, std::string>> context = BuildContext();
  context.emplace_back("aux_users", flags.GetString("aux_users"));
  context.emplace_back("target_size", flags.GetString("target_size"));
  context.emplace_back("seed", flags.GetString("seed"));
  for (auto& pair : extra) context.push_back(std::move(pair));
  return context;
}

// Writes `entries` as a stable, diffable JSON document so future PRs have
// a perf trajectory to regress against (the acceptance flow stores it as
// BENCH_dehin.json). `context` holds run-level string facts — notably the
// host and build — as a top-level "context" object, and a
// snapshot of the process-wide obs::MetricsRegistry (every counter/gauge/
// histogram the run touched) is embedded under "metrics", giving all
// benches one uniform context+metrics block. Returns false (with a message
// on stderr) when the file cannot be written.
inline bool WriteBenchJson(
    const std::string& path, const std::vector<BenchJsonEntry>& entries,
    const std::vector<std::pair<std::string, std::string>>& context = {}) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write bench json to '%s'\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  if (!context.empty()) {
    std::fprintf(f, "  \"context\": {");
    for (size_t i = 0; i < context.size(); ++i) {
      std::fprintf(f, "%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                   JsonEscape(context[i].first).c_str(),
                   JsonEscape(context[i].second).c_str());
    }
    std::fprintf(f, "},\n");
  }
  {
    const std::string metrics_obj = std::string(util::Trim(
        obs::MetricsRegistry::Global().Snapshot().ToJson()));
    std::fprintf(f, "  \"metrics\": %s,\n", metrics_obj.c_str());
  }
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const BenchJsonEntry& e = entries[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"real_time_s\": %.9g",
                 JsonEscape(e.name).c_str(), e.real_time_s);
    for (const auto& [key, value] : e.counters) {
      std::fprintf(f, ", \"%s\": %.9g", JsonEscape(key).c_str(), value);
    }
    std::fprintf(f, "}%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

// Percent formatting used throughout the paper's tables.
inline std::string Pct(double fraction, int decimals = 1) {
  return util::FormatDouble(fraction * 100.0, decimals);
}

}  // namespace hinpriv::bench

#endif  // HINPRIV_BENCH_BENCH_COMMON_H_
