// Shared declarations of the end-to-end benchmark binary. See
// perfbench/README.md for why each workload exists, the host-noise facts
// the measurement design follows, and the layer-to-metric map.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// All-core warm-up right before every timed phase (README.md, noise
// facts): vCPUs that idled for seconds run the next second slower.
inline constexpr double kWarmSeconds = 1.5;

// Set-ups per run; setup_s is their median.
inline constexpr int kRestarts = 5;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  // Length of the timed phase.
  double seconds = 10.0;
  // 0: end-to-end metrics, untraced. 1: per-layer metrics from the
  // benchmark's own timings of public calls plus the program's registry
  // counters.
  bool trace = false;
  // Input sizes. The defaults are the benchmark; the self-test shrinks
  // them.
  size_t users = 200'000;
  size_t targets = 1000;
  // Per-run input files; created and removed by main.
  std::string data_dir;
  // Self-test hook: flip one reference answer so the run must fail.
  bool corrupt_reference = false;
};

// What a workload hands back to main for the final JSON line.
struct Outcome {
  uint64_t attempted = 0;
  // Non-OK response codes, transport errors and wrong answers.
  uint64_t failed = 0;
  // The wrong answers among `failed`; any makes the run exit non-zero.
  uint64_t mismatches = 0;
  // Metric values by name; metrics.h holds the names and units.
  std::map<std::string, double> values;

  void Set(const std::string& name, double value) { values[name] = value; }
};

// Workloads. A non-OK status is a broken run (no result line); wrong
// answers are counted in the Outcome instead.
hinpriv::util::Status RunServe(const Options& options, Outcome* outcome);
hinpriv::util::Status RunAudit(const Options& options, Outcome* outcome);
hinpriv::util::Status RunGrow(const Options& options, Outcome* outcome);

// --- order statistics -------------------------------------------------------

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile: over 1,000 samples, p99 leaves exactly 10
// samples above it.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(index, v.size() - 1)];
}

// Every repeat of every target's call, in seconds. A target's latency is
// the median of its repeats: latency spikes from vCPU preemption hit
// random requests, and the median drops them where the fastest repeat
// follows the host's brief fast spells.
struct PerTarget {
  explicit PerTarget(size_t n) : all(n) {}
  void Record(size_t target, double seconds) {
    all[target].push_back(seconds);
  }
  std::vector<double> Medians() const {
    std::vector<double> medians;
    for (const std::vector<double>& samples : all) {
      medians.push_back(Median(samples));
    }
    return medians;
  }
  std::vector<std::vector<double>> all;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
