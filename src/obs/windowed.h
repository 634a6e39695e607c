#ifndef HINPRIV_OBS_WINDOWED_H_
#define HINPRIV_OBS_WINDOWED_H_

#include <chrono>
#include <deque>
#include <functional>
#include <mutex>
#include <string_view>

#include "obs/metrics.h"

namespace hinpriv::obs {

// Rolling-window view over a MetricsRegistry: each SampleNow() records the
// registry's instruments into a bounded ring of timestamped snapshots, and
// windowed statistics are derived by differencing — counter rates (q/s,
// shed/s) and histogram percentiles (p50/p95/p99 of only the samples
// recorded inside the window). This is what turns the export-at-exit
// registry into a live product-metrics plane: the resident service's
// `stats` verb, the `serve` heartbeat, and the server's health state all
// read through it. The caller owns the timer (the server samples on its
// admin thread's introspection tick).
//
// Window semantics: a query for `window_sec` differences the newest sample
// against the newest retained sample at least that old; when history is
// shorter than the window (warm-up, or a ring that rolled over), the oldest
// retained sample is used and the *actual* covered seconds are reported, so
// rates never divide by a window that was not observed. With fewer than two
// samples every delta is zero over zero seconds.
//
// Sampling is cold-path (one registry snapshot per SampleNow()); queries
// take the same mutex and are serving-path cheap. Thread-safe.
struct WindowedAggregatorOptions {
  // Snapshots retained; the sampling interval times ring_capacity bounds
  // the widest window (64 samples at 1/s ≳ a 60s window).
  size_t ring_capacity = 64;
  // Test seam: overrides the steady clock used to stamp samples.
  std::function<std::chrono::steady_clock::time_point()> clock;
};

class WindowedAggregator {
 public:
  // nullptr registry selects MetricsRegistry::Global().
  explicit WindowedAggregator(MetricsRegistry* registry = nullptr,
                              WindowedAggregatorOptions options = {});

  WindowedAggregator(const WindowedAggregator&) = delete;
  WindowedAggregator& operator=(const WindowedAggregator&) = delete;

  // Takes one sample now; every window is a difference of two samples.
  void SampleNow();

  struct CounterWindow {
    uint64_t delta = 0;    // counter increase across the window
    double seconds = 0.0;  // actually covered time (<= requested window)
    double rate = 0.0;     // delta / seconds; 0 when seconds == 0
  };
  CounterWindow CounterRate(std::string_view name, double window_sec) const;

  // Histogram restricted to samples recorded inside the window: bucket and
  // count/sum deltas, with min/max tightened to the populated delta
  // buckets, so Percentile() interpolates over window-local data.
  // `seconds_out` (optional) reports the covered time.
  HistogramSnapshot HistogramWindow(std::string_view name, double window_sec,
                                    double* seconds_out = nullptr) const;

  // Latest sampled gauge value (0 when absent or never sampled).
  double GaugeValue(std::string_view name) const;

  // Latest sampled counter value (cumulative, not windowed).
  uint64_t CounterValue(std::string_view name) const;

  size_t num_samples() const;
  // Seconds between the oldest and newest retained samples.
  double coverage_seconds() const;

 private:
  struct TimedSample {
    std::chrono::steady_clock::time_point at;
    MetricsSnapshot snapshot;
  };

  std::chrono::steady_clock::time_point Now() const;
  // Newest and base samples for a window; returns false with < 2 samples.
  bool PickWindow(double window_sec, const TimedSample** base,
                  const TimedSample** latest) const;

  MetricsRegistry* registry_;
  WindowedAggregatorOptions options_;

  mutable std::mutex mu_;
  std::deque<TimedSample> ring_;
};

}  // namespace hinpriv::obs

#endif  // HINPRIV_OBS_WINDOWED_H_
