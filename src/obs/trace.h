#ifndef HINPRIV_OBS_TRACE_H_
#define HINPRIV_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace hinpriv::obs {

// Hierarchical timing spans with Chrome trace-event JSON export.
//
//   HINPRIV_SPAN("dehin/match_neighborhood");
//
// opens a span that closes at scope exit. Spans are recorded into per-thread
// buffers (one uncontended mutex per buffer, touched only on Begin/End), so
// an EvaluateAttackParallel run renders as a per-worker flame timeline in
// chrome://tracing or https://ui.perfetto.dev.
//
// Disabled-mode cost (the default) is one relaxed atomic load and a
// predictable branch per span — cheap enough to leave HINPRIV_SPAN in hot
// library code unconditionally. Span *names must be string literals* (or
// otherwise outlive the recorder): only the pointer is stored.
//
// Lifecycle: StartTracing() clears previous events and enables recording;
// StopTracing() disables it. Spans still open across either transition stay
// internally consistent: a span only records its end into the same epoch
// that recorded its beginning. An export may still run while some span is
// open (an executor task's span closes only after the ParallelFor it
// served has released its caller); the export leaves such a span out
// until its end is recorded, so exported B/E events always pair up.
//
// Buffers are bounded: each thread keeps at most TraceBufferCapacity()
// events and drops the oldest beyond that (counted in
// obs/trace_dropped_events), so tracing a long-lived server cannot grow
// memory without limit. The exporter drops end events whose begin was
// evicted, keeping the emitted trace well-formed.

// True while spans are being recorded.
bool TracingEnabled();

// Enables recording, discarding any previously recorded events.
void StartTracing();

// Disables recording. Already-open spans that began before the stop still
// record their end (their B is in the buffer; dropping the E would emit an
// unbalanced trace).
void StopTracing();

// Per-thread event cap (drop-oldest beyond it). The setter applies to all
// buffers, including existing ones, from the next append on; values are
// clamped to at least 2 so a span can always hold its own B/E pair.
size_t TraceBufferCapacity();
void SetTraceBufferCapacity(size_t max_events);

// Names the calling thread in the exported trace (Perfetto shows it on the
// track header). Safe to call whether or not tracing is enabled.
void SetCurrentThreadName(std::string name);

// --- request-id span context ------------------------------------------------
//
// The service stamps each admitted request with a monotonically increasing
// id and threads it through every span recorded while the request runs:
// spans begun while a nonzero id is installed carry `args: {"rid": N}` in
// the exported trace, so one request's work is filterable across its
// executor task (or the admin thread, for admin verbs) and any
// parallel-scan grains (the executor captures the submitter's id into
// each task).

// The calling thread's current request id; 0 = none.
uint64_t CurrentRequestId();
void SetCurrentRequestId(uint64_t rid);

// RAII installer; restores the previous id on scope exit.
class ScopedRequestId {
 public:
  explicit ScopedRequestId(uint64_t rid) : prev_(CurrentRequestId()) {
    SetCurrentRequestId(rid);
  }
  ~ScopedRequestId() { SetCurrentRequestId(prev_); }
  ScopedRequestId(const ScopedRequestId&) = delete;
  ScopedRequestId& operator=(const ScopedRequestId&) = delete;

 private:
  uint64_t prev_;
};

// The recorded events as a Chrome trace-event JSON document
// ({"traceEvents": [...], "displayTimeUnit": "ms"}). Timestamps are
// microseconds relative to the earliest recorded event. Safe to call at
// any time; typically after StopTracing(). Spans still open at the call
// are left out, as are ends whose begin was evicted, so every thread's
// track is a balanced bracket sequence.
std::string ChromeTraceJson();

// Writes ChromeTraceJson() to `path`.
util::Status WriteChromeTrace(const std::string& path);

// Number of recorded events (B + E + thread metadata excluded); for tests.
size_t NumRecordedTraceEvents();

namespace internal {

extern std::atomic<bool> g_tracing_enabled;

// nullptr name marks an E (span end) event.
struct TraceEvent {
  const char* name;
  uint64_t ts_ns;
  uint64_t rid;  // request id at Begin time; 0 = none (and on E events)
};

class ThreadTraceBuffer;

// The calling thread's buffer, registered with the global recorder on first
// use and kept alive (for export) after the thread exits.
ThreadTraceBuffer* CurrentThreadBuffer();

// Appends a B event; returns the buffer's current epoch so the matching
// End() can be dropped if StartTracing() cleared the buffer in between.
uint64_t BeginSpan(ThreadTraceBuffer* buffer, const char* name);
void EndSpan(ThreadTraceBuffer* buffer, uint64_t epoch);

}  // namespace internal

// RAII span. Prefer the HINPRIV_SPAN macro.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (!internal::g_tracing_enabled.load(std::memory_order_relaxed)) return;
    buffer_ = internal::CurrentThreadBuffer();
    epoch_ = internal::BeginSpan(buffer_, name);
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) internal::EndSpan(buffer_, epoch_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  internal::ThreadTraceBuffer* buffer_ = nullptr;
  uint64_t epoch_ = 0;
};

#define HINPRIV_SPAN_CONCAT2(a, b) a##b
#define HINPRIV_SPAN_CONCAT(a, b) HINPRIV_SPAN_CONCAT2(a, b)
// Times the enclosing scope under `name` (a string literal) when tracing is
// enabled; near-free when disabled.
#define HINPRIV_SPAN(name)                                      \
  ::hinpriv::obs::ScopedSpan HINPRIV_SPAN_CONCAT(_hinpriv_span_, \
                                                 __COUNTER__)(name)

}  // namespace hinpriv::obs

#endif  // HINPRIV_OBS_TRACE_H_
