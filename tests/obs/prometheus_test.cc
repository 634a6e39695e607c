#include "obs/prometheus.h"

#include <string>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hinpriv::obs {
namespace {

TEST(PrometheusNameTest, ManglesSlashPathsAndSuffixesCounters) {
  EXPECT_EQ(PrometheusName("dehin/index_scans", PrometheusKind::kCounter),
            "hinpriv_dehin_index_scans_total");
  EXPECT_EQ(PrometheusName("service/queue_depth", PrometheusKind::kGauge),
            "hinpriv_service_queue_depth");
  EXPECT_EQ(
      PrometheusName("service/request_latency_us", PrometheusKind::kHistogram),
      "hinpriv_service_request_latency_us");
  EXPECT_EQ(PrometheusName("service/attack_one/d2", PrometheusKind::kCounter),
            "hinpriv_service_attack_one_d2_total");
}

TEST(MetricNameLintTest, AcceptsConventionRejectsViolations) {
  EXPECT_TRUE(IsLintedMetricName("dehin/index_scans"));
  EXPECT_TRUE(IsLintedMetricName("service/attack_one/d0"));
  EXPECT_TRUE(IsLintedMetricName("exec/tasks"));
  EXPECT_TRUE(IsLintedMetricName("a"));
  EXPECT_TRUE(IsLintedMetricName("snake_case_123"));

  EXPECT_FALSE(IsLintedMetricName(""));
  EXPECT_FALSE(IsLintedMetricName("/leading"));
  EXPECT_FALSE(IsLintedMetricName("trailing/"));
  EXPECT_FALSE(IsLintedMetricName("doubled//segment"));
  EXPECT_FALSE(IsLintedMetricName("Upper/case"));
  EXPECT_FALSE(IsLintedMetricName("has space"));
  EXPECT_FALSE(IsLintedMetricName("has-dash"));
  EXPECT_FALSE(IsLintedMetricName("dotted.name"));
  // No label syntax: a name carries no dimension beyond its path.
  EXPECT_FALSE(IsLintedMetricName("service/requests_received|replica=1"));
  EXPECT_FALSE(IsLintedMetricName("a|b"));
}

// The exposition output is deterministic (name-sorted snapshot, fixed
// formatting), so a golden-text comparison pins the exact format scrape
// pipelines will parse.
TEST(PrometheusTextTest, GoldenExport) {
  MetricsRegistry registry;
  registry.GetCounter("dehin/index_scans")->Add(42);
  registry.GetGauge("service/queue_depth")->Set(3.5);
  Histogram* latency = registry.GetHistogram("service/request_latency_us");
  latency->Record(0);  // bucket 0 (le 0)
  latency->Record(1);  // bucket 1 (le 1)
  latency->Record(5);  // bucket 3 (le 7)
  latency->Record(5);

  const std::string expected =
      "# TYPE hinpriv_dehin_index_scans_total counter\n"
      "hinpriv_dehin_index_scans_total 42\n"
      "# TYPE hinpriv_service_queue_depth gauge\n"
      "hinpriv_service_queue_depth 3.5\n"
      "# TYPE hinpriv_service_request_latency_us histogram\n"
      "hinpriv_service_request_latency_us_bucket{le=\"0\"} 1\n"
      "hinpriv_service_request_latency_us_bucket{le=\"1\"} 2\n"
      "hinpriv_service_request_latency_us_bucket{le=\"3\"} 2\n"
      "hinpriv_service_request_latency_us_bucket{le=\"7\"} 4\n"
      "hinpriv_service_request_latency_us_bucket{le=\"+Inf\"} 4\n"
      "hinpriv_service_request_latency_us_sum 11\n"
      "hinpriv_service_request_latency_us_count 4\n";
  EXPECT_EQ(ToPrometheusText(registry.Snapshot()), expected);
}

TEST(PrometheusTextTest, EmptyHistogramEmitsOnlyInfBucket) {
  MetricsRegistry registry;
  registry.GetHistogram("test/empty");
  const std::string expected =
      "# TYPE hinpriv_test_empty histogram\n"
      "hinpriv_test_empty_bucket{le=\"+Inf\"} 0\n"
      "hinpriv_test_empty_sum 0\n"
      "hinpriv_test_empty_count 0\n";
  EXPECT_EQ(ToPrometheusText(registry.Snapshot()), expected);
}

TEST(PrometheusTextTest, HistogramBucketsAreCumulative) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test/h");
  for (uint64_t v = 0; v < 100; ++v) h->Record(v);
  const std::string text = ToPrometheusText(registry.Snapshot());
  // Cumulative le="63" bucket holds all 64 samples in [0, 63].
  EXPECT_NE(text.find("hinpriv_test_h_bucket{le=\"63\"} 64\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("hinpriv_test_h_bucket{le=\"+Inf\"} 100\n"),
            std::string::npos)
      << text;
}

// Every instrument the process actually registers must follow the naming
// convention — this is the lint that keeps future metrics exportable
// without mangling surprises.
TEST(MetricNameLintTest, GlobalRegistryIsFullyLinted) {
  // Touch the obs-layer instruments this library registers lazily.
  StartTracing();
  SetTraceBufferCapacity(2);
  { HINPRIV_SPAN("lint_a"); }
  { HINPRIV_SPAN("lint_b"); }
  { HINPRIV_SPAN("lint_c"); }
  StopTracing();
  SetTraceBufferCapacity(1 << 16);

  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  for (const CounterSnapshot& counter : snapshot.counters) {
    EXPECT_TRUE(IsLintedMetricName(counter.name)) << counter.name;
  }
  for (const GaugeSnapshot& gauge : snapshot.gauges) {
    EXPECT_TRUE(IsLintedMetricName(gauge.name)) << gauge.name;
  }
  for (const HistogramSnapshot& histogram : snapshot.histograms) {
    EXPECT_TRUE(IsLintedMetricName(histogram.name)) << histogram.name;
  }
}

}  // namespace
}  // namespace hinpriv::obs
