#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>

#include "obs/metrics.h"

namespace hinpriv::obs {

namespace internal {

std::atomic<bool> g_tracing_enabled{false};

namespace {

// Default cap: at ~24 bytes/event this bounds a thread's buffer to ~1.5MB
// and keeps a full multi-thread trace_dump comfortably inside the service's
// 16MB frame limit.
constexpr size_t kDefaultTraceBufferCapacity = 1 << 16;

std::atomic<size_t> g_trace_buffer_capacity{kDefaultTraceBufferCapacity};

thread_local uint64_t tls_request_id = 0;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Resolved lazily so the registry exists before the first drop; called
// under a buffer mutex, which is safe — the registry mutex never acquires
// buffer locks.
Counter* DroppedEventsCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("obs/trace_dropped_events");
  return counter;
}

}  // namespace

// Per-thread event buffer. Appends happen only from the owner thread but
// export and StartTracing()'s clear run on another thread, so every access
// is under the (owner-uncontended) buffer mutex. The deque is a bounded
// ring: appending past the capacity evicts the oldest event.
class ThreadTraceBuffer {
 public:
  explicit ThreadTraceBuffer(uint32_t tid) : tid_(tid) {}

  uint64_t Begin(const char* name) {
    std::lock_guard<std::mutex> lock(mu_);
    Append({name, NowNs(), tls_request_id});
    return epoch_;
  }

  void End(uint64_t epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    // The matching Begin was wiped by a StartTracing() in between; an E
    // without its B would make the trace unbalanced.
    if (epoch != epoch_) return;
    Append({nullptr, NowNs(), 0});
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    ++epoch_;
  }

  void SetName(std::string name) {
    std::lock_guard<std::mutex> lock(mu_);
    name_ = std::move(name);
  }

  // Snapshot for export.
  void Read(std::vector<TraceEvent>* events, std::string* name) const {
    std::lock_guard<std::mutex> lock(mu_);
    events->assign(events_.begin(), events_.end());
    *name = name_;
  }

  uint32_t tid() const { return tid_; }

 private:
  void Append(TraceEvent event) {
    const size_t cap =
        std::max<size_t>(2, g_trace_buffer_capacity.load(
                                std::memory_order_relaxed));
    uint64_t dropped = 0;
    while (events_.size() >= cap) {
      events_.pop_front();
      ++dropped;
    }
    if (dropped > 0) DroppedEventsCounter()->Add(dropped);
    events_.push_back(event);
  }

  mutable std::mutex mu_;
  uint32_t tid_;
  uint64_t epoch_ = 0;
  std::string name_;
  std::deque<TraceEvent> events_;
};

namespace {

// Global recorder: owns a reference to every thread buffer ever created so
// events survive worker-thread exit until the main thread exports them.
struct Recorder {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
};

Recorder& GlobalRecorder() {
  static Recorder* recorder = new Recorder();
  return *recorder;
}

std::shared_ptr<ThreadTraceBuffer> RegisterThreadBuffer() {
  Recorder& recorder = GlobalRecorder();
  std::lock_guard<std::mutex> lock(recorder.mu);
  auto buffer = std::make_shared<ThreadTraceBuffer>(
      static_cast<uint32_t>(recorder.buffers.size() + 1));
  recorder.buffers.push_back(buffer);
  return buffer;
}

}  // namespace

ThreadTraceBuffer* CurrentThreadBuffer() {
  thread_local const std::shared_ptr<ThreadTraceBuffer> buffer =
      RegisterThreadBuffer();
  return buffer.get();
}

uint64_t BeginSpan(ThreadTraceBuffer* buffer, const char* name) {
  return buffer->Begin(name);
}

void EndSpan(ThreadTraceBuffer* buffer, uint64_t epoch) {
  buffer->End(epoch);
}

}  // namespace internal

bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}

void StartTracing() {
  internal::Recorder& recorder = internal::GlobalRecorder();
  {
    std::lock_guard<std::mutex> lock(recorder.mu);
    for (const auto& buffer : recorder.buffers) buffer->Clear();
  }
  internal::g_tracing_enabled.store(true, std::memory_order_relaxed);
}

void StopTracing() {
  internal::g_tracing_enabled.store(false, std::memory_order_relaxed);
}

size_t TraceBufferCapacity() {
  return internal::g_trace_buffer_capacity.load(std::memory_order_relaxed);
}

void SetTraceBufferCapacity(size_t max_events) {
  internal::g_trace_buffer_capacity.store(std::max<size_t>(2, max_events),
                                          std::memory_order_relaxed);
}

void SetCurrentThreadName(std::string name) {
  internal::CurrentThreadBuffer()->SetName(std::move(name));
}

uint64_t CurrentRequestId() { return internal::tls_request_id; }

void SetCurrentRequestId(uint64_t rid) { internal::tls_request_id = rid; }

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

// Microseconds with sub-microsecond precision kept (Perfetto accepts
// fractional ts).
void AppendTimestampUs(std::string* out, uint64_t ts_ns, uint64_t origin_ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(ts_ns - origin_ns) / 1000.0);
  out->append(buf);
}

struct BufferDump {
  uint32_t tid;
  std::string name;
  std::vector<internal::TraceEvent> events;
};

}  // namespace

std::string ChromeTraceJson() {
  std::vector<BufferDump> dumps;
  {
    internal::Recorder& recorder = internal::GlobalRecorder();
    std::lock_guard<std::mutex> lock(recorder.mu);
    dumps.reserve(recorder.buffers.size());
    for (const auto& buffer : recorder.buffers) {
      BufferDump dump;
      dump.tid = buffer->tid();
      buffer->Read(&dump.events, &dump.name);
      dumps.push_back(std::move(dump));
    }
  }
  uint64_t origin_ns = std::numeric_limits<uint64_t>::max();
  for (const BufferDump& dump : dumps) {
    for (const internal::TraceEvent& event : dump.events) {
      origin_ns = std::min(origin_ns, event.ts_ns);
    }
  }
  if (origin_ns == std::numeric_limits<uint64_t>::max()) origin_ns = 0;

  std::string out;
  out.reserve(4096);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ",";
    first = false;
    out += "\n";
  };
  for (const BufferDump& dump : dumps) {
    char tid_buf[64];
    std::snprintf(tid_buf, sizeof(tid_buf), "\"pid\": 1, \"tid\": %u",
                  dump.tid);
    if (!dump.name.empty()) {
      comma();
      out += "{\"name\": \"thread_name\", \"ph\": \"M\", ";
      out += tid_buf;
      out += ", \"args\": {\"name\": ";
      AppendJsonString(&out, dump.name);
      out += "}}";
    }
    // Per-buffer order is the owner thread's program order, so B/E events
    // form a proper bracket sequence per tid by construction, with two
    // exceptions at its ends: the bounded buffer may have evicted a prefix,
    // leaving E events whose B is gone, and spans still open at export
    // time have a B and no E yet (an executor task's span can close after
    // the ParallelFor it served has returned to the exporting thread).
    // Matching brackets finds both kinds, and the export leaves them out.
    std::vector<bool> keep(dump.events.size(), true);
    std::vector<size_t> open;
    for (size_t i = 0; i < dump.events.size(); ++i) {
      if (dump.events[i].name != nullptr) {
        open.push_back(i);
      } else if (open.empty()) {
        keep[i] = false;  // orphaned E
      } else {
        open.pop_back();
      }
    }
    for (size_t i : open) keep[i] = false;  // still open
    for (size_t i = 0; i < dump.events.size(); ++i) {
      if (!keep[i]) continue;
      const internal::TraceEvent& event = dump.events[i];
      comma();
      if (event.name != nullptr) {
        out += "{\"name\": ";
        AppendJsonString(&out, event.name);
        out += ", \"cat\": \"hinpriv\", \"ph\": \"B\", ";
        if (event.rid != 0) {
          char rid_buf[48];
          std::snprintf(rid_buf, sizeof(rid_buf),
                        "\"args\": {\"rid\": %llu}, ",
                        static_cast<unsigned long long>(event.rid));
          out += rid_buf;
        }
      } else {
        out += "{\"ph\": \"E\", ";
      }
      out += tid_buf;
      out += ", \"ts\": ";
      AppendTimestampUs(&out, event.ts_ns, origin_ns);
      out += "}";
    }
  }
  out += "\n]}\n";
  return out;
}

util::Status WriteChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return util::Status::IoError("cannot write trace to: " + path);
  }
  const std::string json = ChromeTraceJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return util::Status::IoError("short write of trace to: " + path);
  }
  return util::Status::OK();
}

size_t NumRecordedTraceEvents() {
  internal::Recorder& recorder = internal::GlobalRecorder();
  std::lock_guard<std::mutex> lock(recorder.mu);
  size_t total = 0;
  for (const auto& buffer : recorder.buffers) {
    std::vector<internal::TraceEvent> events;
    std::string name;
    buffer->Read(&events, &name);
    total += events.size();
  }
  return total;
}

}  // namespace hinpriv::obs
