#include "obs/windowed.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"

namespace hinpriv::obs {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// Deterministic clock: every SampleNow() is stamped with whatever the test
// set, so window arithmetic is exact.
struct FakeClock {
  steady_clock::time_point now = steady_clock::time_point{} + milliseconds(1);
  void Advance(milliseconds d) { now += d; }
};

struct Fixture {
  Fixture(size_t ring_capacity = 64) {
    WindowedAggregatorOptions options;
    options.ring_capacity = ring_capacity;
    options.clock = [this] { return clock.now; };
    aggregator = std::make_unique<WindowedAggregator>(&registry, options);
  }
  MetricsRegistry registry;
  FakeClock clock;
  std::unique_ptr<WindowedAggregator> aggregator;
};

TEST(WindowedAggregatorTest, FewerThanTwoSamplesReportsZero) {
  Fixture f;
  f.registry.GetCounter("test/requests")->Add(100);
  EXPECT_EQ(f.aggregator->CounterRate("test/requests", 1.0).delta, 0u);
  EXPECT_EQ(f.aggregator->CounterRate("test/requests", 1.0).rate, 0.0);
  f.aggregator->SampleNow();
  const auto one = f.aggregator->CounterRate("test/requests", 1.0);
  EXPECT_EQ(one.delta, 0u);
  EXPECT_EQ(one.seconds, 0.0);
  EXPECT_EQ(f.aggregator->HistogramWindow("test/latency", 1.0).count, 0u);
  // The single retained sample still answers cumulative queries.
  EXPECT_EQ(f.aggregator->CounterValue("test/requests"), 100u);
}

TEST(WindowedAggregatorTest, CounterRateOverExactWindow) {
  Fixture f;
  Counter* requests = f.registry.GetCounter("test/requests");
  f.aggregator->SampleNow();
  for (int tick = 0; tick < 10; ++tick) {
    f.clock.Advance(milliseconds(1000));
    requests->Add(50);
    f.aggregator->SampleNow();
  }
  // 1s window: exactly the last tick's 50 increments.
  const auto one = f.aggregator->CounterRate("test/requests", 1.0);
  EXPECT_EQ(one.delta, 50u);
  EXPECT_DOUBLE_EQ(one.seconds, 1.0);
  EXPECT_DOUBLE_EQ(one.rate, 50.0);
  // 5s window.
  const auto five = f.aggregator->CounterRate("test/requests", 5.0);
  EXPECT_EQ(five.delta, 250u);
  EXPECT_DOUBLE_EQ(five.seconds, 5.0);
  EXPECT_DOUBLE_EQ(five.rate, 50.0);
}

TEST(WindowedAggregatorTest, ShortHistoryClampsAndReportsCoveredSeconds) {
  Fixture f;
  Counter* requests = f.registry.GetCounter("test/requests");
  f.aggregator->SampleNow();
  f.clock.Advance(milliseconds(2000));
  requests->Add(80);
  f.aggregator->SampleNow();
  // A 60s window with only 2s of history: the delta covers what exists and
  // the covered seconds say so — the rate divides by 2, not 60.
  const auto window = f.aggregator->CounterRate("test/requests", 60.0);
  EXPECT_EQ(window.delta, 80u);
  EXPECT_DOUBLE_EQ(window.seconds, 2.0);
  EXPECT_DOUBLE_EQ(window.rate, 40.0);
}

TEST(WindowedAggregatorTest, RingRolloverForgetsEvictedHistory) {
  Fixture f(/*ring_capacity=*/4);
  Counter* requests = f.registry.GetCounter("test/requests");
  for (int tick = 0; tick < 20; ++tick) {
    requests->Add(10);
    f.aggregator->SampleNow();
    f.clock.Advance(milliseconds(1000));
  }
  EXPECT_EQ(f.aggregator->num_samples(), 4u);
  // Widest answerable window = ring span (3 intervals), regardless of the
  // requested width.
  const auto wide = f.aggregator->CounterRate("test/requests", 1000.0);
  EXPECT_EQ(wide.delta, 30u);
  EXPECT_DOUBLE_EQ(wide.seconds, 3.0);
  EXPECT_DOUBLE_EQ(f.aggregator->coverage_seconds(), 3.0);
}

TEST(WindowedAggregatorTest, RegistryResetClampsDeltaToZero) {
  Fixture f;
  Counter* requests = f.registry.GetCounter("test/requests");
  requests->Add(1000);
  f.aggregator->SampleNow();
  f.clock.Advance(milliseconds(1000));
  requests->Reset();
  requests->Add(5);
  f.aggregator->SampleNow();
  // 5 < 1000: the registry was reset mid-window; a naive unsigned
  // subtraction would report ~2^64.
  EXPECT_EQ(f.aggregator->CounterRate("test/requests", 10.0).delta, 0u);
}

TEST(WindowedAggregatorTest, HistogramWindowIsolatesInWindowSamples) {
  Fixture f;
  Histogram* latency = f.registry.GetHistogram("test/latency_us");
  // Warmup noise before the window: huge values that must not contaminate
  // the windowed percentiles.
  for (int i = 0; i < 100; ++i) latency->Record(1'000'000);
  f.aggregator->SampleNow();
  f.clock.Advance(milliseconds(1000));
  // In-window load: 1000 samples spread over [0, 999].
  for (uint64_t v = 0; v < 1000; ++v) latency->Record(v);
  f.aggregator->SampleNow();

  const HistogramSnapshot window =
      f.aggregator->HistogramWindow("test/latency_us", 1.0);
  EXPECT_EQ(window.count, 1000u);
  EXPECT_EQ(window.sum, 999u * 1000u / 2u);
  // Log2 buckets bound each percentile within a factor of 2 of the exact
  // rank statistic; the warmup's 1e6 values must be absent entirely.
  const double p50 = window.Percentile(50.0);
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1023.0);
  const double p99 = window.Percentile(99.0);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1023.0);
  EXPECT_LE(window.max, 1023u);  // bucket-high bound, not the warmup 1e6
}

TEST(WindowedAggregatorTest, WindowedPercentilesTrackReplayedLoadShape) {
  Fixture f;
  Histogram* latency = f.registry.GetHistogram("test/latency_us");
  f.aggregator->SampleNow();

  // Tick 1: fast phase, all samples ~100us.
  f.clock.Advance(milliseconds(1000));
  for (int i = 0; i < 500; ++i) latency->Record(100);
  f.aggregator->SampleNow();

  // Tick 2: slow phase, all samples ~100000us.
  f.clock.Advance(milliseconds(1000));
  for (int i = 0; i < 500; ++i) latency->Record(100'000);
  f.aggregator->SampleNow();

  // The 1s window sees only the slow phase...
  const HistogramSnapshot slow =
      f.aggregator->HistogramWindow("test/latency_us", 1.0);
  EXPECT_EQ(slow.count, 500u);
  EXPECT_GE(slow.Percentile(50.0), 65536.0);   // 2^16 <= 100000 < 2^17
  EXPECT_LE(slow.Percentile(50.0), 131071.0);
  // ...while the 2s window mixes both phases: its p50 is still fast-phase,
  // its p99 slow-phase.
  const HistogramSnapshot both =
      f.aggregator->HistogramWindow("test/latency_us", 2.0);
  EXPECT_EQ(both.count, 1000u);
  EXPECT_LE(both.Percentile(50.0), 127.0);
  EXPECT_GE(both.Percentile(99.0), 65536.0);
}

TEST(WindowedAggregatorTest, GaugeReportsLatestSample) {
  Fixture f;
  Gauge* depth = f.registry.GetGauge("test/queue_depth");
  depth->Set(3.0);
  f.aggregator->SampleNow();
  f.clock.Advance(milliseconds(1000));
  depth->Set(7.0);
  f.aggregator->SampleNow();
  EXPECT_DOUBLE_EQ(f.aggregator->GaugeValue("test/queue_depth"), 7.0);
  EXPECT_DOUBLE_EQ(f.aggregator->GaugeValue("test/absent"), 0.0);
}

}  // namespace
}  // namespace hinpriv::obs
