#include "service/server.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "core/matchers.h"
#include "core/privacy_risk.h"
#include "core/signature.h"
#include "core/value_counts.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "service/json.h"
#include "service/local_scan.h"

namespace hinpriv::service {

namespace {

// Upper bound on the sleep debug method (load testing aid).
constexpr double kMaxSleepMs = 10'000.0;
// Snapshots retained in the windowed ring; tick * ring bounds the widest
// answerable window (the default tick covers a 60s window with headroom).
constexpr size_t kIntrospectionRing = 256;
// Health policy (see DESIGN.md §11): "shedding" when any request was shed
// within kShedWindowSec or the queue is full; otherwise "degraded" when the
// queue sits at kDegradedQueueFraction of capacity or more than
// kDegradedMissRate of the requests of the last kMissWindowSec missed their
// deadline; otherwise "ok".
constexpr double kShedWindowSec = 1.0;
constexpr double kMissWindowSec = 10.0;
constexpr double kDegradedQueueFraction = 0.75;
constexpr double kDegradedMissRate = 0.10;
// Worst-N slow-query log returned by the `stats` verb.
constexpr size_t kSlowLogCapacity = 16;
// Longest wait MillisToDuration represents. A client's deadline_ms can be
// as large as 1e300; a day is "no deadline" in practice, and the clamp
// keeps the conversion inside the clock's integer range.
constexpr double kMaxWaitMs = 24 * 3600 * 1000.0;

std::chrono::steady_clock::duration MillisToDuration(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(std::min(ms, kMaxWaitMs)));
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point from,
                   std::chrono::steady_clock::time_point to) {
  return static_cast<uint64_t>(std::max<int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(to - from)
             .count()));
}

// Keep inline trace dumps comfortably inside the frame cap: the dump is
// wrapped in a response envelope and JSON-escaped, which roughly doubles
// worst-case size.
constexpr size_t kMaxInlineTraceBytes = kMaxFrameBytes / 2 - 4096;

}  // namespace

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kOk:
      return "ok";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kShedding:
      return "shedding";
  }
  return "ok";
}

Server::Server(const hin::Graph* target, const hin::Graph* auxiliary,
               ServerConfig config)
    : Server(target, std::unique_ptr<Handler>(), std::move(config)) {
  // Built here rather than passed to the delegate: it reads config_,
  // which the delegate has moved in.
  handler_ = std::make_unique<LocalScan>(target, auxiliary, config_);
}

Server::Server(const hin::Graph* target, std::unique_ptr<Handler> handler,
               ServerConfig config)
    : target_(target),
      config_(std::move(config)),
      handler_(std::move(handler)),
      window_(nullptr, obs::WindowedAggregatorOptions{kIntrospectionRing, {}}),
      slow_log_(kSlowLogCapacity) {
  config_.queue_capacity = std::max<size_t>(1, config_.queue_capacity);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  requests_received_ = registry.GetCounter("service/requests_received");
  responses_ok_ = registry.GetCounter("service/responses_ok");
  shed_ = registry.GetCounter("service/shed");
  deadline_exceeded_ = registry.GetCounter("service/deadline_exceeded");
  cancelled_ = registry.GetCounter("service/cancelled");
  invalid_ = registry.GetCounter("service/invalid_requests");
  internal_errors_ = registry.GetCounter("service/internal_errors");
  connections_accepted_ = registry.GetCounter("service/connections_accepted");
  write_errors_ = registry.GetCounter("service/write_errors");
  queue_depth_gauge_ = registry.GetGauge("service/queue_depth");
  latency_us_ = registry.GetHistogram("service/request_latency_us");
  batch_size_ = registry.GetHistogram("service/batch_size");
  admin_requests_ = registry.GetCounter("service/admin_requests");
  health_gauge_ = registry.GetGauge("service/health_state");
  health_transitions_ = registry.GetCounter("service/health_transitions");
  for (size_t d = 0; d < kDistanceSlots; ++d) {
    const std::string suffix = d <= kMaxDistanceBucket
                                   ? "d" + std::to_string(d)
                                   : std::string("overflow");
    attack_by_distance_[d] =
        registry.GetCounter("service/attack_one/" + suffix);
    deanon_by_distance_[d] =
        registry.GetCounter("service/deanonymized/" + suffix);
  }
}

Server::~Server() { Shutdown(); }

util::Status Server::Start() {
  // Checked before anything starts, so a refused server stays inert.
  if (config_.default_max_distance < 0 ||
      config_.default_max_distance > kMaxDistance) {
    return util::Status::InvalidArgument(
        "default_max_distance must be in [0, " +
        std::to_string(kMaxDistance) + "]");
  }
  if (config_.num_workers > exec::kMaxWorkers) {
    return util::Status::InvalidArgument(
        "num_workers must be at most " + std::to_string(exec::kMaxWorkers));
  }
  if (started_.exchange(true)) {
    return util::Status::InvalidArgument("server already started");
  }
  executor_ = std::make_unique<exec::Executor>(
      exec::ResolveThreads(config_.num_workers));
  HINPRIV_RETURN_IF_ERROR(handler_->Start(executor_.get()));

  EventLoop::Options loop_options;
  loop_options.on_accept = [this](uint64_t) {
    connections_accepted_->Increment();
  };
  loop_options.on_dropped_response = [this] {
    // The peer hung up without waiting, or never read its responses; the
    // frames are dropped but the server keeps serving.
    write_errors_->Increment();
  };
  loop_ = std::make_unique<EventLoop>(
      [this](uint64_t conn_id, std::string frame) {
        OnFrame(conn_id, std::move(frame));
      },
      std::move(loop_options));
  HINPRIV_RETURN_IF_ERROR(loop_->Listen(config_.host, config_.port));
  port_ = loop_->port();

  started_at_ = std::chrono::steady_clock::now();
  // Seed the ring before serving so the first stats/health query already
  // has a baseline sample to difference against.
  if (config_.introspection_tick_ms > 0) window_.SampleNow();
  admin_thread_ = std::thread([this] { AdminLoop(); });
  loop_->Start();
  return util::Status::OK();
}

void Server::EvaluateHealth() {
  HealthState next = HealthState::kOk;
  const size_t depth = queued_.load();
  const size_t capacity = config_.queue_capacity;
  const auto shed = window_.CounterRate("service/shed", kShedWindowSec);
  const auto miss =
      window_.CounterRate("service/deadline_exceeded", kMissWindowSec);
  const auto received =
      window_.CounterRate("service/requests_received", kMissWindowSec);
  if (shed.delta > 0 || depth >= capacity) {
    next = HealthState::kShedding;
  } else if (static_cast<double>(depth) >=
                 kDegradedQueueFraction * static_cast<double>(capacity) ||
             (received.delta > 0 &&
              static_cast<double>(miss.delta) >
                  kDegradedMissRate * static_cast<double>(received.delta))) {
    next = HealthState::kDegraded;
  }
  const int prev = health_.exchange(static_cast<int>(next));
  health_gauge_->Set(static_cast<double>(static_cast<int>(next)));
  if (prev != static_cast<int>(next)) health_transitions_->Increment();
}

HealthState Server::health() const {
  return static_cast<HealthState>(health_.load(std::memory_order_relaxed));
}

Server::LiveStats Server::Live(double window_sec) const {
  LiveStats live;
  const auto received =
      window_.CounterRate("service/requests_received", window_sec);
  live.window_sec = received.seconds;
  live.qps = received.rate;
  live.p99_us =
      window_.HistogramWindow("service/request_latency_us", window_sec)
          .Percentile(99.0);
  live.queue_depth = queued_.load();
  live.requests_received = window_.CounterValue("service/requests_received");
  live.health = health();
  return live;
}

void Server::OnFrame(uint64_t conn_id, std::string frame) {
  HINPRIV_SPAN("service/admit_request");
  requests_received_->Increment();
  auto doc = JsonValue::Parse(frame);
  if (!doc.ok()) {
    Reply(conn_id, ErrorResponse(ResponseCode::kInvalidRequest,
                                 doc.status().message()));
    return;
  }
  auto request = DecodeRequest(doc.value());
  if (!request.ok()) {
    Reply(conn_id,
          ErrorResponse(ResponseCode::kInvalidRequest,
                        request.status().message(),
                        static_cast<uint64_t>(doc.value().GetInt("id", 0))));
    return;
  }
  PendingRequest pending;
  pending.conn_id = conn_id;
  pending.request = std::move(request).value();
  pending.admitted = std::chrono::steady_clock::now();
  pending.rid = next_rid_.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t id = pending.request.id;
  if (IsAdminMethod(pending.request.method)) {
    // Introspection verbs bypass the admission queue: they answer within
    // deadline even when the serving path is saturated and shedding —
    // exactly when an operator needs them. They run on the admin thread,
    // never here, so a slow one (a large trace dump) cannot stall the
    // loop.
    std::unique_lock<std::mutex> lock(admin_mu_);
    if (!admin_stop_) {
      admin_queue_.push_back(std::move(pending));
      lock.unlock();
      admin_cv_.notify_one();
      return;
    }
  }
  // Admission: one kHigh task per admitted request, so requests run ahead
  // of any queued intra-query scan grains (kNormal) and a long parallel
  // scan cannot starve the request path. stopping_ is read and the task
  // counted under drain_mu_, where Shutdown() sets stopping_ before it
  // waits for the count: no task is submitted after that wait returns.
  ResponseCode refusal = ResponseCode::kOk;
  {
    std::lock_guard<std::mutex> drain_lock(drain_mu_);
    if (stopping_) {
      refusal = ResponseCode::kShuttingDown;
    } else if (queued_.load() >= config_.queue_capacity) {
      refusal = ResponseCode::kBusy;
    } else {
      ++queued_;
      ++drain_tasks_;
    }
  }
  if (refusal == ResponseCode::kShuttingDown) {
    Reply(conn_id, ErrorResponse(refusal, "server is draining", id));
    return;
  }
  if (refusal == ResponseCode::kBusy) {
    // Admission control: a full queue sheds immediately instead of
    // building a backlog that would blow every queued deadline.
    shed_->Increment();
    Reply(conn_id, ErrorResponse(refusal, "request queue full", id));
    return;
  }
  queue_depth_gauge_->Set(static_cast<double>(queued_.load()));
  executor_->Submit(
      [this, pending = std::move(pending)] { ServeAdmitted(pending); },
      exec::Priority::kHigh);
}

void Server::AdminLoop() {
  obs::SetCurrentThreadName("service/admin");
  const bool ticking = config_.introspection_tick_ms > 0;
  const auto tick =
      std::chrono::milliseconds(std::max(1, config_.introspection_tick_ms));
  auto next_tick = std::chrono::steady_clock::now() + tick;
  while (true) {
    std::optional<PendingRequest> pending;
    {
      std::unique_lock<std::mutex> lock(admin_mu_);
      const auto ready = [this] {
        return admin_stop_ || !admin_queue_.empty();
      };
      if (ticking) {
        admin_cv_.wait_until(lock, next_tick, ready);
      } else {
        admin_cv_.wait(lock, ready);
      }
      if (!admin_queue_.empty()) {
        pending = std::move(admin_queue_.front());
        admin_queue_.pop_front();
      } else if (admin_stop_) {
        return;  // stopped, and everything it held is answered
      }
    }
    // The introspection tick: sample the registry into the windowed ring
    // and re-evaluate health, whether or not a verb woke the thread.
    if (ticking && std::chrono::steady_clock::now() >= next_tick) {
      window_.SampleNow();
      EvaluateHealth();
      next_tick = std::chrono::steady_clock::now() + tick;
    }
    if (!pending.has_value()) continue;
    obs::ScopedRequestId rid_scope(pending->rid);
    HINPRIV_SPAN("service/admin");
    admin_requests_->Increment();
    Response response = ProcessAdmin(pending->request);
    response.id = pending->request.id;
    Reply(pending->conn_id, response);
  }
}

void Server::ServeAdmitted(const PendingRequest& pending) {
  const auto started = std::chrono::steady_clock::now();
  queue_depth_gauge_->Set(static_cast<double>(--queued_));
  batch_size_->Record(1);
  obs::ScopedRequestId rid_scope(pending.rid);
  HINPRIV_SPAN("service/handle_request");
  Response response;
  // A throwing handler must still answer and count this task down: the
  // pool would swallow the exception, leaving the client without a
  // reply and Shutdown() waiting for a drain that never finishes.
  try {
    response = Process(pending);
  } catch (const std::exception& e) {
    response = ErrorResponse(ResponseCode::kInternal,
                             std::string("unhandled exception: ") +
                                 e.what());
  } catch (...) {
    response = ErrorResponse(ResponseCode::kInternal, "unhandled exception");
  }
  response.id = pending.request.id;
  const auto processed = std::chrono::steady_clock::now();
  Reply(pending.conn_id, response);
  const auto responded = std::chrono::steady_clock::now();
  latency_us_->Record(ElapsedUs(pending.admitted, responded));

  SlowQueryRecord record;
  record.rid = pending.rid;
  record.method = pending.request.method;
  record.target = pending.request.target;
  record.has_target = pending.request.has_target;
  record.max_distance = ResolveMaxDistance(pending.request);
  record.code = response.code;
  record.queue_us = ElapsedUs(pending.admitted, started);
  record.run_us = ElapsedUs(started, processed);
  record.write_us = ElapsedUs(processed, responded);
  record.total_us = ElapsedUs(pending.admitted, responded);
  slow_log_.Record(record);

  std::lock_guard<std::mutex> lock(drain_mu_);
  if (--drain_tasks_ == 0) drain_cv_.notify_all();
}

int Server::ResolveMaxDistance(const Request& request) const {
  return request.max_distance >= 0 ? request.max_distance
                                   : config_.default_max_distance;
}

Response Server::Process(const PendingRequest& pending) {
  const Request& request = pending.request;
  // The deadline runs from admission: time burned waiting in the queue
  // counts against the request, which is what makes a saturated server
  // fail fast instead of serving answers nobody is waiting for anymore.
  util::CancelToken token;
  const double deadline_ms = request.deadline_ms > 0
                                 ? request.deadline_ms
                                 : config_.default_deadline_ms;
  if (deadline_ms > 0) {
    token.SetDeadline(pending.admitted + MillisToDuration(deadline_ms));
    if (token.deadline_exceeded()) {
      return ErrorResponse(ResponseCode::kDeadlineExceeded,
                           "deadline expired while queued");
    }
  }
  switch (request.method) {
    case Method::kAttackOne:
      return ProcessAttackOne(request, token);
    case Method::kRisk:
      return ProcessRisk(request);
    case Method::kApplyDelta:
      return handler_->ApplyDelta(request.path, token);
    case Method::kSleep:
      return ProcessSleep(request, token);
    default:
      // Admin verbs go to the admin thread and are never admitted.
      return ErrorResponse(ResponseCode::kInternal, "unhandled method");
  }
}

Response Server::ProcessAdmin(const Request& request) {
  switch (request.method) {
    case Method::kStats:
      return ProcessStats();
    case Method::kHealth:
      return ProcessHealth();
    case Method::kMetrics:
      return ProcessMetrics(request);
    case Method::kTraceStart: {
      obs::StartTracing();
      Response response;
      response.result = JsonValue::Object();
      response.result.Set("tracing", JsonValue::Bool(true));
      return response;
    }
    case Method::kTraceStop: {
      obs::StopTracing();
      Response response;
      response.result = JsonValue::Object();
      response.result.Set("tracing", JsonValue::Bool(false));
      response.result.Set(
          "events",
          JsonValue::Int(static_cast<int64_t>(obs::NumRecordedTraceEvents())));
      return response;
    }
    case Method::kTraceDump:
      return ProcessTraceDump(request);
    default:
      return ErrorResponse(ResponseCode::kInternal, "not an admin method");
  }
}

Response Server::ProcessAttackOne(const Request& request,
                                  const util::CancelToken& token) {
  HINPRIV_SPAN("service/attack_one");
  if (request.target >= target_->num_vertices()) {
    return ErrorResponse(ResponseCode::kInvalidRequest,
                         "target vertex out of range");
  }
  const int max_distance = ResolveMaxDistance(request);
  Response response = handler_->AttackOne(request.target, max_distance, token);
  const size_t distance_slot =
      max_distance >= 0 && max_distance <= kMaxDistanceBucket
          ? static_cast<size_t>(max_distance)
          : kDistanceSlots - 1;
  attack_by_distance_[distance_slot]->Increment();
  if (response.result.GetBool("deanonymized")) {
    deanon_by_distance_[distance_slot]->Increment();
  }
  return response;
}

util::Result<const Server::RiskEntry*> Server::RiskForDistance(
    int max_distance) {
  std::lock_guard<std::mutex> lock(risk_mu_);
  auto it = risk_cache_.find(max_distance);
  if (it != risk_cache_.end()) return &it->second;

  HINPRIV_SPAN("service/compute_risk");
  // Same signature configuration as `hinpriv_cli audit`: every profile
  // attribute of entity type 0 plus every link type in the schema.
  core::SignatureOptions options;
  const size_t num_attrs = target_->num_attributes(0);
  for (hin::AttributeId a = 0; a < num_attrs; ++a) {
    options.attributes.push_back(a);
  }
  options.link_types = core::AllLinkTypes(*target_);
  const auto signatures =
      core::ComputeSignatures(*target_, options, max_distance);
  if (signatures.empty()) {
    return util::Status::FailedPrecondition(
        "signature computation produced no levels");
  }
  // One count serves all three answers: k per tuple, and C(T) for
  // R(T) = C(T)/N (Theorem 1).
  const std::vector<uint64_t>& values = signatures.back();
  const core::ValueCounts counts(values);
  RiskEntry entry;
  entry.per_tuple = core::PerTupleRisk(values, counts);
  entry.cardinality = counts.num_distinct();
  entry.network_risk = values.empty()
                           ? 0.0
                           : static_cast<double>(entry.cardinality) /
                                 static_cast<double>(values.size());
  it = risk_cache_.emplace(max_distance, std::move(entry)).first;
  return &it->second;
}

Response Server::ProcessRisk(const Request& request) {
  HINPRIV_SPAN("service/risk");
  if (request.has_target && request.target >= target_->num_vertices()) {
    return ErrorResponse(ResponseCode::kInvalidRequest,
                         "target vertex out of range");
  }
  const int max_distance = ResolveMaxDistance(request);
  auto entry = RiskForDistance(max_distance);
  if (!entry.ok()) {
    return ErrorResponse(ResponseCode::kInternal, entry.status().message());
  }
  JsonValue payload = JsonValue::Object();
  payload.Set("max_distance", JsonValue::Int(max_distance));
  if (request.has_target) {
    payload.Set("target", JsonValue::Int(request.target));
    payload.Set("risk",
                JsonValue::Number(entry.value()->per_tuple[request.target]));
  } else {
    payload.Set("network_risk", JsonValue::Number(entry.value()->network_risk));
    payload.Set("cardinality",
                JsonValue::Int(static_cast<int64_t>(entry.value()->cardinality)));
    payload.Set("num_entities",
                JsonValue::Int(static_cast<int64_t>(target_->num_vertices())));
  }
  Response response;
  response.result = std::move(payload);
  return response;
}

Response Server::ProcessStats() {
  JsonValue payload = JsonValue::Object();
  payload.Set("target_vertices",
              JsonValue::Int(static_cast<int64_t>(target_->num_vertices())));
  payload.Set("target_edges",
              JsonValue::Int(static_cast<int64_t>(target_->num_edges())));
  payload.Set("queue_depth",
              JsonValue::Int(static_cast<int64_t>(queued_.load())));
  payload.Set("queue_capacity",
              JsonValue::Int(static_cast<int64_t>(config_.queue_capacity)));
  payload.Set("num_workers",
              JsonValue::Int(static_cast<int64_t>(executor_->num_workers())));

  // --- live introspection: uptime, health, windowed rates/percentiles,
  // per-distance counters, slow queries, tracing state.
  payload.Set("uptime_sec",
              JsonValue::Number(std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    started_at_)
                                    .count()));
  payload.Set("health", JsonValue::Str(HealthStateName(health())));
  payload.Set("requests_received",
              JsonValue::Int(static_cast<int64_t>(requests_received_->Value())));
  payload.Set("responses_ok",
              JsonValue::Int(static_cast<int64_t>(responses_ok_->Value())));
  payload.Set("shed", JsonValue::Int(static_cast<int64_t>(shed_->Value())));
  payload.Set("deadline_exceeded",
              JsonValue::Int(static_cast<int64_t>(deadline_exceeded_->Value())));
  payload.Set("tracing", JsonValue::Bool(obs::TracingEnabled()));

  JsonValue windows = JsonValue::Array();
  for (const double w : {1.0, 10.0, 60.0}) {
    JsonValue entry = JsonValue::Object();
    entry.Set("requested_window_sec", JsonValue::Number(w));
    const auto received =
        window_.CounterRate("service/requests_received", w);
    entry.Set("window_sec", JsonValue::Number(received.seconds));
    entry.Set("qps", JsonValue::Number(received.rate));
    entry.Set("shed_per_sec",
              JsonValue::Number(window_.CounterRate("service/shed", w).rate));
    entry.Set("deadline_miss_per_sec",
              JsonValue::Number(
                  window_.CounterRate("service/deadline_exceeded", w).rate));
    const obs::HistogramSnapshot latency =
        window_.HistogramWindow("service/request_latency_us", w);
    JsonValue lat = JsonValue::Object();
    lat.Set("count", JsonValue::Int(static_cast<int64_t>(latency.count)));
    lat.Set("p50_us", JsonValue::Number(latency.Percentile(50.0)));
    lat.Set("p95_us", JsonValue::Number(latency.Percentile(95.0)));
    lat.Set("p99_us", JsonValue::Number(latency.Percentile(99.0)));
    entry.Set("latency", std::move(lat));
    windows.Append(std::move(entry));
  }
  payload.Set("windows", std::move(windows));

  JsonValue per_distance = JsonValue::Object();
  for (size_t d = 0; d < kDistanceSlots; ++d) {
    const uint64_t attacks = attack_by_distance_[d]->Value();
    if (attacks == 0) continue;
    JsonValue slot = JsonValue::Object();
    slot.Set("attacks", JsonValue::Int(static_cast<int64_t>(attacks)));
    slot.Set("deanonymized",
             JsonValue::Int(
                 static_cast<int64_t>(deanon_by_distance_[d]->Value())));
    per_distance.Set(d <= static_cast<size_t>(kMaxDistanceBucket)
                         ? "d" + std::to_string(d)
                         : std::string("overflow"),
                     std::move(slot));
  }
  payload.Set("per_distance", std::move(per_distance));

  JsonValue slow = JsonValue::Array();
  for (const SlowQueryRecord& record : slow_log_.WorstFirst()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("rid", JsonValue::Int(static_cast<int64_t>(record.rid)));
    entry.Set("method", JsonValue::Str(MethodName(record.method)));
    if (record.has_target) {
      entry.Set("target", JsonValue::Int(record.target));
    }
    entry.Set("max_distance", JsonValue::Int(record.max_distance));
    entry.Set("code", JsonValue::Str(ResponseCodeName(record.code)));
    entry.Set("queue_us", JsonValue::Int(static_cast<int64_t>(record.queue_us)));
    entry.Set("run_us", JsonValue::Int(static_cast<int64_t>(record.run_us)));
    entry.Set("write_us", JsonValue::Int(static_cast<int64_t>(record.write_us)));
    entry.Set("total_us", JsonValue::Int(static_cast<int64_t>(record.total_us)));
    slow.Append(std::move(entry));
  }
  payload.Set("slow_queries", std::move(slow));
  handler_->AppendStats(&payload);

  Response response;
  response.result = std::move(payload);
  return response;
}

Response Server::ProcessHealth() {
  JsonValue payload = JsonValue::Object();
  handler_->AppendHealth(&payload);
  payload.Set("health", JsonValue::Str(HealthStateName(health())));
  payload.Set("queue_depth",
              JsonValue::Int(static_cast<int64_t>(queued_.load())));
  payload.Set("queue_capacity",
              JsonValue::Int(static_cast<int64_t>(config_.queue_capacity)));
  const auto shed = window_.CounterRate("service/shed", kShedWindowSec);
  payload.Set("shed_per_sec", JsonValue::Number(shed.rate));
  const auto miss =
      window_.CounterRate("service/deadline_exceeded", kMissWindowSec);
  const auto received =
      window_.CounterRate("service/requests_received", kMissWindowSec);
  payload.Set("deadline_miss_rate",
              JsonValue::Number(
                  received.delta > 0
                      ? static_cast<double>(miss.delta) /
                            static_cast<double>(received.delta)
                      : 0.0));
  payload.Set("uptime_sec",
              JsonValue::Number(std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    started_at_)
                                    .count()));
  Response response;
  response.result = std::move(payload);
  return response;
}

Response Server::ProcessMetrics(const Request& request) {
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  JsonValue payload = JsonValue::Object();
  if (!request.path.empty()) {
    const util::Status status =
        obs::WritePrometheusText(snapshot, request.path);
    if (!status.ok()) {
      return ErrorResponse(ResponseCode::kInternal, status.message());
    }
    payload.Set("path", JsonValue::Str(request.path));
  } else {
    const std::string text = obs::ToPrometheusText(snapshot);
    payload.Set("content_type",
                JsonValue::Str("text/plain; version=0.0.4"));
    payload.Set("text", JsonValue::Str(text));
  }
  Response response;
  response.result = std::move(payload);
  return response;
}

Response Server::ProcessTraceDump(const Request& request) {
  JsonValue payload = JsonValue::Object();
  if (!request.path.empty()) {
    const util::Status status = obs::WriteChromeTrace(request.path);
    if (!status.ok()) {
      return ErrorResponse(ResponseCode::kInternal, status.message());
    }
    payload.Set("path", JsonValue::Str(request.path));
  } else {
    std::string trace = obs::ChromeTraceJson();
    if (trace.size() > kMaxInlineTraceBytes) {
      return ErrorResponse(ResponseCode::kInvalidRequest,
                           "trace too large for an inline dump (" +
                               std::to_string(trace.size()) +
                               " bytes); pass 'path' to write it server-side");
    }
    payload.Set("trace", JsonValue::Str(std::move(trace)));
  }
  payload.Set("events",
              JsonValue::Int(
                  static_cast<int64_t>(obs::NumRecordedTraceEvents())));
  Response response;
  response.result = std::move(payload);
  return response;
}

Response Server::ProcessSleep(const Request& request,
                              const util::CancelToken& token) {
  const double sleep_ms = std::clamp(request.sleep_ms, 0.0, kMaxSleepMs);
  // Sleep in 1ms slices so a deadline mid-sleep is honored promptly — this
  // is the load-testing method the integration test uses to hold a worker
  // busy deterministically.
  const auto end = std::chrono::steady_clock::now() + MillisToDuration(sleep_ms);
  while (std::chrono::steady_clock::now() < end) {
    if (token.ShouldStop()) {
      return ErrorResponse(token.deadline_exceeded()
                               ? ResponseCode::kDeadlineExceeded
                               : ResponseCode::kCancelled,
                           "sleep interrupted");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Response response;
  response.result = JsonValue::Object();
  response.result.Set("slept_ms", JsonValue::Number(sleep_ms));
  return response;
}

void Server::Reply(uint64_t conn_id, const Response& response) {
  switch (response.code) {
    case ResponseCode::kOk:
      responses_ok_->Increment();
      break;
    case ResponseCode::kDeadlineExceeded:
      deadline_exceeded_->Increment();
      break;
    case ResponseCode::kCancelled:
      cancelled_->Increment();
      break;
    case ResponseCode::kInvalidRequest:
      invalid_->Increment();
      break;
    case ResponseCode::kInternal:
      internal_errors_->Increment();
      break;
    default:  // BUSY and SHUTTING_DOWN; admission counts its own sheds
      break;
  }
  if (loop_ == nullptr ||
      !loop_->Send(conn_id, EncodeResponse(response).Serialize())) {
    write_errors_->Increment();
  }
}

void Server::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (!started_.load(std::memory_order_acquire) ||
      finished_.load(std::memory_order_acquire)) {
    return;
  }

  // 1. Admit nothing more, then stop accepting new connections.
  //    Established connections keep their sockets: frames that still
  //    arrive are answered SHUTTING_DOWN by OnFrame, and responses to
  //    in-flight requests still go out through the loop.
  {
    std::lock_guard<std::mutex> drain_lock(drain_mu_);
    stopping_ = true;
  }
  if (loop_ != nullptr) loop_->StopAccepting();

  // 2. Drain: every request OnFrame admitted holds one counted task, so
  //    once the count hits zero every admitted request has been answered.
  {
    std::unique_lock<std::mutex> drain_lock(drain_mu_);
    drain_cv_.wait(drain_lock, [this] { return drain_tasks_ == 0; });
  }
  queue_depth_gauge_->Set(0.0);

  // 3. Stop the admin thread after the serving drain; it answers what it
  //    already holds before exiting, and OnFrame answers later admin
  //    verbs SHUTTING_DOWN. Its introspection tick stops with it.
  if (admin_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> admin_lock(admin_mu_);
      admin_stop_ = true;
    }
    admin_cv_.notify_all();
    admin_thread_.join();
  }

  // Joining the pool here (rather than at destruction) keeps the
  // post-Shutdown server inert.
  executor_.reset();

  // 4. Flush: every response above was enqueued into the loop; Shutdown
  //    keeps writing until the queues empty (bounded by the loop's drain
  //    grace), then closes every socket and joins the loop thread.
  if (loop_ != nullptr) loop_->Shutdown();

  // 5. Final telemetry snapshot, after all request processing quiesced.
  if (!config_.metrics_json_path.empty()) {
    (void)obs::WriteMetricsJson(obs::MetricsRegistry::Global().Snapshot(),
                                config_.metrics_json_path);
  }
  finished_.store(true, std::memory_order_release);
}

bool Server::finished() const {
  return finished_.load(std::memory_order_acquire);
}

}  // namespace hinpriv::service
