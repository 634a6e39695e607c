#include "obs/prometheus.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace hinpriv::obs {

namespace {

void AppendUint(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  if (!std::isfinite(v)) {
    // The exposition format does have literals for these.
    out->append(std::isnan(v) ? "NaN" : (v > 0 ? "+Inf" : "-Inf"));
    return;
  }
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out->append(buf);
}

void AppendTypeLine(std::string* out, const std::string& name,
                    const char* type) {
  out->append("# TYPE ");
  out->append(name);
  out->push_back(' ');
  out->append(type);
  out->push_back('\n');
}

}  // namespace

bool IsLintedMetricName(std::string_view name) {
  if (name.empty() || name.front() == '/' || name.back() == '/') return false;
  char prev = '\0';
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '/';
    if (!ok) return false;
    if (c == '/' && prev == '/') return false;  // empty segment
    prev = c;
  }
  return true;
}

std::string PrometheusName(std::string_view name, PrometheusKind kind) {
  std::string out = "hinpriv_";
  out.reserve(out.size() + name.size() + 6);
  for (char c : name) {
    out.push_back(c == '/' ? '_' : c);
  }
  if (kind == PrometheusKind::kCounter) out += "_total";
  return out;
}

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(2048);
  for (const CounterSnapshot& counter : snapshot.counters) {
    const std::string name =
        PrometheusName(counter.name, PrometheusKind::kCounter);
    AppendTypeLine(&out, name, "counter");
    out.append(name);
    out.push_back(' ');
    AppendUint(&out, counter.value);
    out.push_back('\n');
  }
  for (const GaugeSnapshot& gauge : snapshot.gauges) {
    const std::string name = PrometheusName(gauge.name, PrometheusKind::kGauge);
    AppendTypeLine(&out, name, "gauge");
    out.append(name);
    out.push_back(' ');
    AppendDouble(&out, gauge.value);
    out.push_back('\n');
  }
  for (const HistogramSnapshot& histogram : snapshot.histograms) {
    const std::string name =
        PrometheusName(histogram.name, PrometheusKind::kHistogram);
    AppendTypeLine(&out, name, "histogram");
    // Cumulative buckets at the log2 upper bounds, emitted up to the last
    // populated bucket (every later `le` would repeat the same cumulative
    // count that +Inf carries anyway).
    size_t last_populated = 0;
    for (size_t b = 0; b < histogram.buckets.size(); ++b) {
      if (histogram.buckets[b] > 0) last_populated = b;
    }
    uint64_t cumulative = 0;
    for (size_t b = 0; b <= last_populated && histogram.count > 0; ++b) {
      cumulative += histogram.buckets[b];
      out.append(name);
      out.append("_bucket{le=\"");
      AppendUint(&out, Histogram::BucketHigh(b));
      out.append("\"} ");
      AppendUint(&out, cumulative);
      out.push_back('\n');
    }
    out.append(name);
    out.append("_bucket{le=\"+Inf\"} ");
    AppendUint(&out, histogram.count);
    out.push_back('\n');
    out.append(name);
    out.append("_sum ");
    AppendUint(&out, histogram.sum);
    out.push_back('\n');
    out.append(name);
    out.append("_count ");
    AppendUint(&out, histogram.count);
    out.push_back('\n');
  }
  return out;
}

util::Status WritePrometheusText(const MetricsSnapshot& snapshot,
                                 const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return util::Status::IoError("cannot write prometheus text to: " + path);
  }
  const std::string text = ToPrometheusText(snapshot);
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int close_rc = std::fclose(f);
  if (written != text.size() || close_rc != 0) {
    return util::Status::IoError("short write of prometheus text to: " + path);
  }
  return util::Status::OK();
}

}  // namespace hinpriv::obs
