// The metric catalogue (names and units, matching BENCHMARK.json), the
// registry counters the program already exports, read as deltas over
// benchmark phases, and the reconciliation of layers with end to end.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <initializer_list>
#include <map>
#include <string>

#include "bench.h"
#include "obs/metrics.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

// --trace 0. Every workload reports all four; README.md gives each
// workload's definition of op_ms and tail_ms.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"op_ms", "ms"},
    {"tail_ms", "ms"},
};

// --trace 1. A layer that is not on a workload's path reports 0, set by
// name with SetNotOnPath.
inline constexpr MetricDef kPerLayer[] = {
    {"hin.load_s", "s"},
    {"core.dehin.build_s", "s"},
    {"hin.delta_load_ms", "ms"},
    {"hin.apply_delta_ms", "ms"},
    {"core.dehin.apply_aux_delta_ms", "ms"},
    {"core.dehin.deanonymize_p50_us", "us"},
    {"core.dehin.deanonymize_p99_us", "us"},
    {"service.overhead_p50_us", "us"},
    {"service.overhead_p99_us", "us"},
    {"service.batch_size_mean", "count"},
    {"core.index.scan_length_mean", "count"},
    {"core.index.scan_length_p99", "count"},
    {"core.prefilter.rejects", "count"},
    {"core.prefilter.reject_ratio", "ratio"},
    {"matching.full_tests", "count"},
    {"matching.bipartite_right_p99", "count"},
    {"core.cache.hit_ratio", "ratio"},
    {"core.cache.inserts", "count"},
    {"exec.tasks", "count"},
    {"exec.steals", "count"},
    {"exec.parallel_fors", "count"},
    {"eval.across_target_speedup", "ratio"},
    {"core.risk.n0_s", "s"},
    {"core.risk.n1_s", "s"},
    {"core.risk.n2_s", "s"},
    {"reconcile.e2e_ms", "ms"},
    {"reconcile.layer_sum_ms", "ms"},
    {"reconcile.gap_ratio", "ratio"},
    {"reconcile.trace_overhead_ratio", "ratio"},
};

// Sets the layers a workload does not run to 0. Naming them keeps a layer
// the workload forgot to measure from printing a silent 0: main refuses to
// print a catalogue metric that was never set.
inline void SetNotOnPath(std::initializer_list<const char*> names,
                         Outcome* outcome) {
  for (const char* name : names) outcome->Set(name, 0.0);
}

// Registry counters summed over the phases bracketed by Begin()/End().
class RegistryDeltas {
 public:
  void Begin() { before_ = hinpriv::obs::MetricsRegistry::Global().Snapshot(); }
  void End();

  double Counter(const std::string& name) const;
  // The histogram of samples recorded inside the brackets.
  hinpriv::obs::HistogramSnapshot Histogram(const std::string& name) const;

 private:
  hinpriv::obs::MetricsSnapshot before_;
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, hinpriv::obs::HistogramSnapshot> histograms_;
};

// Index, prefilter, matching, cache and executor layers from the
// program's own counters, per pass over all targets.
void SetCounterLayers(const RegistryDeltas& deltas, double passes,
                      Outcome* outcome);

// Adds the reconciliation of one workload: the end-to-end number next to
// the sum of its independently measured layers, and the tracing overhead
// (the same operation with the program's span recorder on, against off).
// Prints both and flags a gap above 10% instead of hiding it.
void SetReconciliation(const std::string& what, double e2e_ms,
                       const std::string& layers, double layer_sum_ms,
                       double traced_ms, Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
