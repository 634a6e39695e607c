#ifndef HINPRIV_OBS_PROMETHEUS_H_
#define HINPRIV_OBS_PROMETHEUS_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace hinpriv::obs {

// Prometheus text exposition (version 0.0.4) alongside the existing
// hinpriv-metrics-v1 JSON: the same MetricsSnapshot rendered in the format
// every scrape pipeline ingests. Registry names follow the repo's
// `[a-z0-9_/]+` slash-path convention and are mangled by prefixing
// `hinpriv_` and mapping `/` to `_`; counters additionally get the
// conventional `_total` suffix (`dehin/index_scans` →
// `hinpriv_dehin_index_scans_total`). Histograms emit cumulative
// `_bucket{le="..."}` series at the log2 bucket upper bounds plus the
// mandatory `+Inf` bucket, `_sum`, and `_count`.

// True iff `name` follows the registry naming convention: nonempty, only
// [a-z0-9_/], and no empty path segment (no leading/trailing or doubled
// '/'). The metric-name lint test enforces this across the live registry.
bool IsLintedMetricName(std::string_view name);

enum class PrometheusKind { kCounter, kGauge, kHistogram };

// The mangled exposition name for a registry instrument name.
std::string PrometheusName(std::string_view name, PrometheusKind kind);

// The whole snapshot in exposition format; instruments keep the
// snapshot's name-sorted order, so the output is stable and diffable.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

// Writes ToPrometheusText() to `path`.
util::Status WritePrometheusText(const MetricsSnapshot& snapshot,
                                 const std::string& path);

}  // namespace hinpriv::obs

#endif  // HINPRIV_OBS_PROMETHEUS_H_
