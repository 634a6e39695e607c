#include "obs/windowed.h"

#include <algorithm>

namespace hinpriv::obs {

WindowedAggregator::WindowedAggregator(MetricsRegistry* registry,
                                       WindowedAggregatorOptions options)
    : registry_(registry != nullptr ? registry : &MetricsRegistry::Global()),
      options_(std::move(options)) {
  options_.ring_capacity = std::max<size_t>(2, options_.ring_capacity);
}

std::chrono::steady_clock::time_point WindowedAggregator::Now() const {
  return options_.clock ? options_.clock() : std::chrono::steady_clock::now();
}

void WindowedAggregator::SampleNow() {
  TimedSample sample;
  sample.at = Now();
  sample.snapshot = registry_->Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(std::move(sample));
  while (ring_.size() > options_.ring_capacity) ring_.pop_front();
}

bool WindowedAggregator::PickWindow(double window_sec,
                                    const TimedSample** base,
                                    const TimedSample** latest) const {
  // Caller holds mu_.
  if (ring_.size() < 2) return false;
  *latest = &ring_.back();
  // Newest retained sample at least window_sec old; the ring is in time
  // order, so scan backwards from the end. Falls back to the oldest when
  // history is shorter than the window. The window is clamped to the
  // retained history first: a wider one (callers pass 1e12 for "all of
  // it") would overflow the nanosecond conversion.
  const double history_sec =
      std::chrono::duration<double>((*latest)->at - ring_.front().at).count();
  const auto cutoff = (*latest)->at - std::chrono::duration_cast<
                                          std::chrono::steady_clock::duration>(
                                          std::chrono::duration<double>(
                                              std::clamp(window_sec, 0.0,
                                                         history_sec)));
  *base = &ring_.front();
  for (size_t i = ring_.size() - 1; i-- > 0;) {
    if (ring_[i].at <= cutoff) {
      *base = &ring_[i];
      break;
    }
  }
  return *base != *latest;
}

WindowedAggregator::CounterWindow WindowedAggregator::CounterRate(
    std::string_view name, double window_sec) const {
  std::lock_guard<std::mutex> lock(mu_);
  CounterWindow window;
  const TimedSample* base = nullptr;
  const TimedSample* latest = nullptr;
  if (!PickWindow(window_sec, &base, &latest)) return window;
  const uint64_t newest = latest->snapshot.CounterValue(name);
  const uint64_t oldest = base->snapshot.CounterValue(name);
  // Counters are monotone; a smaller newest value means the registry was
  // reset between samples — report zero rather than a huge bogus delta.
  window.delta = newest >= oldest ? newest - oldest : 0;
  window.seconds =
      std::chrono::duration<double>(latest->at - base->at).count();
  window.rate = window.seconds > 0
                    ? static_cast<double>(window.delta) / window.seconds
                    : 0.0;
  return window;
}

HistogramSnapshot WindowedAggregator::HistogramWindow(
    std::string_view name, double window_sec, double* seconds_out) const {
  std::lock_guard<std::mutex> lock(mu_);
  HistogramSnapshot delta;
  delta.name = std::string(name);
  if (seconds_out != nullptr) *seconds_out = 0.0;
  const TimedSample* base = nullptr;
  const TimedSample* latest = nullptr;
  if (!PickWindow(window_sec, &base, &latest)) return delta;
  const HistogramSnapshot* newest = latest->snapshot.FindHistogram(name);
  if (newest == nullptr) return delta;
  const HistogramSnapshot* oldest = base->snapshot.FindHistogram(name);
  if (seconds_out != nullptr) {
    *seconds_out =
        std::chrono::duration<double>(latest->at - base->at).count();
  }
  size_t first_populated = Histogram::kNumBuckets;
  size_t last_populated = 0;
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    const uint64_t now_count = newest->buckets[b];
    const uint64_t then_count = oldest != nullptr ? oldest->buckets[b] : 0;
    delta.buckets[b] = now_count >= then_count ? now_count - then_count : 0;
    if (delta.buckets[b] > 0) {
      first_populated = std::min(first_populated, b);
      last_populated = std::max(last_populated, b);
      delta.count += delta.buckets[b];
    }
  }
  const uint64_t then_sum = oldest != nullptr ? oldest->sum : 0;
  delta.sum = newest->sum >= then_sum ? newest->sum - then_sum : 0;
  if (delta.count > 0) {
    // Exact window extremes are not recoverable from two cumulative
    // snapshots; tighten to the populated delta buckets intersected with
    // the cumulative extremes (which bound every sample in the window).
    delta.min = std::max(Histogram::BucketLow(first_populated), newest->min);
    delta.max = std::min(Histogram::BucketHigh(last_populated), newest->max);
    if (delta.min > delta.max) {
      delta.min = Histogram::BucketLow(first_populated);
      delta.max = Histogram::BucketHigh(last_populated);
    }
  }
  return delta;
}

double WindowedAggregator::GaugeValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return 0.0;
  for (const GaugeSnapshot& gauge : ring_.back().snapshot.gauges) {
    if (gauge.name == name) return gauge.value;
  }
  return 0.0;
}

uint64_t WindowedAggregator::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return 0;
  return ring_.back().snapshot.CounterValue(name);
}

size_t WindowedAggregator::num_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

double WindowedAggregator::coverage_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < 2) return 0.0;
  return std::chrono::duration<double>(ring_.back().at - ring_.front().at)
      .count();
}

}  // namespace hinpriv::obs
