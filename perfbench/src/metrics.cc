#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace obs = hinpriv::obs;

void RegistryDeltas::End() {
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  for (const obs::CounterSnapshot& c : after.counters) {
    counters_[c.name] += c.value - before_.CounterValue(c.name);
  }
  for (const obs::HistogramSnapshot& h : after.histograms) {
    const obs::HistogramSnapshot* was = before_.FindHistogram(h.name);
    obs::HistogramSnapshot& sum = histograms_[h.name];
    sum.name = h.name;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      sum.buckets[b] += h.buckets[b] - (was == nullptr ? 0 : was->buckets[b]);
    }
    sum.count += h.count - (was == nullptr ? 0 : was->count);
    sum.sum += h.sum - (was == nullptr ? 0 : was->sum);
    sum.max = std::max(sum.max, h.max);
  }
}

double RegistryDeltas::Counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : static_cast<double>(it->second);
}

obs::HistogramSnapshot RegistryDeltas::Histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) return obs::HistogramSnapshot{};
  obs::HistogramSnapshot h = it->second;
  // The brackets' own extremes are not recorded; bound them by buckets.
  const uint64_t overall_max = h.max;
  bool seen = false;
  for (size_t b = 0; b < h.buckets.size(); ++b) {
    if (h.buckets[b] == 0) continue;
    if (!seen) h.min = obs::Histogram::BucketLow(b);
    seen = true;
    h.max = std::min(obs::Histogram::BucketHigh(b), overall_max);
  }
  return h;
}

void SetCounterLayers(const RegistryDeltas& delta, double passes,
                      Outcome* outcome) {
  const double per_pass = passes > 0 ? 1.0 / passes : 0.0;
  const double rejects = delta.Counter("dehin/prefilter_rejects");
  const double hits = delta.Counter("dehin/cache_hits");
  const double full = delta.Counter("dehin/full_tests");
  const obs::HistogramSnapshot scans =
      delta.Histogram("dehin/candidate_index/scan_length");
  const obs::HistogramSnapshot right = delta.Histogram("dehin/bipartite_right");
  outcome->Set("core.index.scan_length_mean", scans.Mean());
  outcome->Set("core.index.scan_length_p99", scans.Percentile(99));
  outcome->Set("core.prefilter.rejects", rejects * per_pass);
  outcome->Set("core.prefilter.reject_ratio",
               rejects + hits + full > 0 ? rejects / (rejects + hits + full)
                                         : 0.0);
  outcome->Set("matching.full_tests", full * per_pass);
  outcome->Set("matching.bipartite_right_p99", right.Percentile(99));
  outcome->Set("core.cache.hit_ratio", hits + full > 0 ? hits / (hits + full)
                                                       : 0.0);
  outcome->Set("core.cache.inserts",
               delta.Counter("match_cache/inserts") * per_pass);
  outcome->Set("exec.tasks", delta.Counter("exec/tasks") * per_pass);
  outcome->Set("exec.steals", delta.Counter("exec/steals") * per_pass);
  outcome->Set("exec.parallel_fors",
               delta.Counter("exec/parallel_fors") * per_pass);
}

void SetReconciliation(const std::string& what, double e2e_ms,
                       const std::string& layers, double layer_sum_ms,
                       double traced_ms, Outcome* outcome) {
  const double gap = e2e_ms > 0 ? (e2e_ms - layer_sum_ms) / e2e_ms : 0.0;
  const double overhead = e2e_ms > 0 ? (traced_ms - e2e_ms) / e2e_ms : 0.0;
  std::printf("reconcile: %s %.3f ms (traced %.3f ms, tracing overhead "
              "%+.1f%%) vs layer sum %.3f ms = %s; gap %+.1f%%%s\n",
              what.c_str(), e2e_ms, traced_ms, 100.0 * overhead,
              layer_sum_ms, layers.c_str(), 100.0 * gap,
              std::fabs(gap) > 0.10 ? "  FLAG: gap over 10%" : "");
  outcome->Set("reconcile.e2e_ms", e2e_ms);
  outcome->Set("reconcile.layer_sum_ms", layer_sum_ms);
  outcome->Set("reconcile.gap_ratio", gap);
  outcome->Set("reconcile.trace_overhead_ratio", overhead);
}

}  // namespace perfbench
