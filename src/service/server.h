#ifndef HINPRIV_SERVICE_SERVER_H_
#define HINPRIV_SERVICE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/dehin.h"
#include "exec/executor.h"
#include "hin/graph.h"
#include "obs/metrics.h"
#include "obs/windowed.h"
#include "service/event_loop.h"
#include "service/protocol.h"
#include "service/slow_query_log.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace hinpriv::service {

// Configuration of the resident attack service.
struct ServerConfig {
  // IPv4 listen address; the default binds loopback only — the service
  // hands out de-anonymization results, keep it off public interfaces.
  std::string host = "127.0.0.1";
  // 0 = kernel-assigned ephemeral port (read back via Server::port()).
  uint16_t port = 0;
  // Size of the execution pool every server owns (0 = one worker per CPU
  // the process may run on; at most exec::kMaxWorkers). Each admitted
  // request runs as one task at Priority::kHigh and intra-query scan
  // grains at kNormal, so admitted requests never starve behind another
  // query's scan work. attack_one runs Dehin::DeanonymizeParallel, which
  // scans serially on one worker.
  size_t num_workers = 4;
  // Admission control: at most this many admitted requests wait for a
  // worker (floored at one); beyond that a request sheds with BUSY
  // instead of queueing into certain deadline misses.
  size_t queue_capacity = 128;
  // Default max neighbor distance n for requests that omit it, in
  // [0, kMaxDistance].
  int default_max_distance = 1;
  // Default per-request deadline for requests that omit it; 0 = none.
  double default_deadline_ms = 0.0;
  // When nonempty, Shutdown() writes a final hinpriv-metrics-v1 snapshot
  // of the global registry here after the drain completes.
  std::string metrics_json_path;
  // Attack configuration (match options, shared cache, saturation).
  core::DehinConfig dehin;

  // Streaming growth: when non-null (and aliasing the same graph as
  // `auxiliary`), the apply_delta verb is enabled — it loads a
  // hinpriv-delta stream from a server-side path and applies each batch
  // in place under the warm-state lock, refreshing the candidate index
  // and match caches incrementally (O(|delta|) instead of a full
  // rebuild). Heap-built and mapped graphs grow alike: the
  // batch lands in the graph's heap overlay, never in its base arena.
  // Null (the default) rejects apply_delta with INVALID_REQUEST.
  hin::Graph* mutable_aux = nullptr;

  // --- live introspection ---------------------------------------------------
  // Introspection tick: every tick the admin thread samples the global
  // registry into the windowed ring and re-evaluates the health state
  // (DESIGN.md §11). <= 0 disables sampling (stats still answers, with
  // empty windows and health pinned at "ok").
  int introspection_tick_ms = 250;
};

// Serving condition re-evaluated every introspection tick, exported as the
// service/health_state gauge (the numeric value) and by the `health` admin
// verb (the name).
enum class HealthState {
  kOk = 0,
  kDegraded = 1,
  kShedding = 2,
};

const char* HealthStateName(HealthState state);

// The attack half of a server: Server is the front-end, and a handler
// answers the verbs that read or grow the auxiliary graph. LocalScan
// (service/local_scan.h) is the one production handler; tests substitute
// their own. attack_one and apply_delta run concurrently on the server's
// workers; the stats and health additions run on its admin thread.
class Handler {
 public:
  Handler() = default;
  virtual ~Handler() = default;
  Handler(const Handler&) = delete;
  Handler& operator=(const Handler&) = delete;

  // Once from Server::Start(), before the first request. `executor` is the
  // server's pool and outlives every later call.
  virtual util::Status Start(exec::Executor*) { return util::Status::OK(); }
  // attack_one for a target the front-end has range-checked, at the
  // resolved distance; an OK answer is built with AttackAnswer().
  virtual Response AttackOne(hin::VertexId target, int max_distance,
                             const util::CancelToken& token) = 0;
  // apply_delta of the server-side hinpriv-delta stream at `path`; a
  // handler that cannot grow its graph refuses INVALID_REQUEST.
  virtual Response ApplyDelta(const std::string& path,
                              const util::CancelToken& token) = 0;
  // Adds the handler's fields to a stats payload.
  virtual void AppendStats(JsonValue* payload) = 0;
  // Adds the handler's fields to a health payload.
  virtual void AppendHealth(JsonValue*) {}
};

// The resident de-anonymization attack service. It owns the sockets (a
// single-threaded epoll EventLoop that only parses frames and hands them
// off), admission into an owned executor pool (one kHigh task per
// admitted request), deadlines, the `risk` and `sleep` verbs, the admin
// verbs and the introspection tick (both on a dedicated admin thread, so
// they respond while the pool is saturated), the slow-query log and the
// graceful drain. attack_one and apply_delta go to its Handler.
//
// Production semantics (see DESIGN.md §7):
//   * admission control — once queue_capacity admitted requests wait for
//     a worker, a request sheds with BUSY immediately;
//   * per-request deadlines — enforced both while queued and inside the
//     handler via util::CancelToken (DEADLINE_EXCEEDED);
//   * graceful drain — Shutdown() stops accepting, finishes every
//     admitted request, flushes every queued response, joins all threads,
//     and writes a final metrics snapshot.
//
// Telemetry: service/* counters (received, ok, shed, deadline_exceeded,
// invalid, connections, write_errors), the service/queue_depth gauge,
// service/request_latency_us and service/batch_size histograms (the
// latter records 1 per served request), and HINPRIV_SPAN coverage of the
// loop/worker paths, so a serving run produces the same Chrome-trace
// flame timelines as the batch path.
class Server {
 public:
  // A LocalScan server: both graphs are borrowed and must outlive the
  // server, which builds the expensive Dehin state over `auxiliary` once
  // at Start() and answers attack_one from it.
  Server(const hin::Graph* target, const hin::Graph* auxiliary,
         ServerConfig config);
  // `handler` answers attack_one and apply_delta. `target` is borrowed
  // (risk needs only the target graph).
  Server(const hin::Graph* target, std::unique_ptr<Handler> handler,
         ServerConfig config);
  ~Server();  // implies Shutdown()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, spawns the event loop, admin and worker threads, and
  // starts the handler (which warms its state so the first request does
  // not pay the build). InvalidArgument, before any thread starts, when
  // default_max_distance or num_workers is out of range.
  util::Status Start();

  // The actually-bound port (differs from config.port when that was 0).
  uint16_t port() const { return port_; }

  // Current health verdict (kOk until the first introspection tick).
  HealthState health() const;

  // One-line self-report over roughly the last `window_sec` seconds, read
  // from the windowed aggregator: the `serve --heartbeat_sec` loop and the
  // introspection tests consume this without a network round-trip.
  struct LiveStats {
    double window_sec = 0.0;  // actually covered seconds
    double qps = 0.0;
    double p99_us = 0.0;
    size_t queue_depth = 0;
    uint64_t requests_received = 0;  // cumulative, as of the last sample
    HealthState health = HealthState::kOk;
  };
  LiveStats Live(double window_sec = 10.0) const;

  // Graceful drain: stop accepting connections and admitting requests,
  // finish everything already admitted, join every thread, flush the
  // final metrics snapshot. Idempotent and thread-safe; blocks until the
  // drain completes.
  void Shutdown();

  // True once Shutdown() has completed.
  bool finished() const;

 private:
  struct PendingRequest {
    uint64_t conn_id = 0;
    Request request;
    std::chrono::steady_clock::time_point admitted;
    // Monotonically increasing server-side request id, assigned at
    // admission and installed as the span context while the request runs.
    uint64_t rid = 0;
  };

  // EventLoop frame handler: parse, then hand admin verbs to the admin
  // thread and admit serving verbs as pool tasks (or shed). Runs on the
  // loop thread — never blocks on compute.
  void OnFrame(uint64_t conn_id, std::string frame);
  // The pool task of one admitted request: serves exactly that request.
  void ServeAdmitted(const PendingRequest& pending);
  // Serves the admin verbs off the event loop, in arrival order, and runs
  // the introspection tick between them.
  void AdminLoop();

  // Serving verbs; the id is set by the caller.
  Response Process(const PendingRequest& pending);
  Response ProcessAttackOne(const Request& request,
                            const util::CancelToken& token);
  Response ProcessRisk(const Request& request);
  Response ProcessSleep(const Request& request,
                        const util::CancelToken& token);
  // Admin verbs; the id is set by the caller.
  Response ProcessAdmin(const Request& request);
  Response ProcessStats();
  Response ProcessHealth();
  Response ProcessMetrics(const Request& request);
  Response ProcessTraceDump(const Request& request);

  void EvaluateHealth();

  // Counts `response` under its code's service/* counter and sends it.
  void Reply(uint64_t conn_id, const Response& response);

  // Per-distance risk results over the target graph, computed lazily and
  // cached (signature pass + per-tuple risk); per-entity queries then cost
  // one array read.
  struct RiskEntry {
    std::vector<double> per_tuple;
    double network_risk = 0.0;
    size_t cardinality = 0;
  };
  util::Result<const RiskEntry*> RiskForDistance(int max_distance);

  int ResolveMaxDistance(const Request& request) const;

  const hin::Graph* target_;
  ServerConfig config_;
  std::unique_ptr<Handler> handler_;

  uint16_t port_ = 0;

  std::atomic<bool> started_{false};
  std::atomic<bool> finished_{false};
  std::mutex shutdown_mu_;  // serializes Shutdown callers

  std::unique_ptr<EventLoop> loop_;
  std::thread admin_thread_;
  std::mutex admin_mu_;
  std::condition_variable admin_cv_;
  std::deque<PendingRequest> admin_queue_;
  bool admin_stop_ = false;

  // The owned execution pool; its kHigh FIFO is the admission queue.
  // Each admitted request is one task, counted in drain_tasks_ from
  // admission until it has answered, so tasks == admitted requests and
  // drain_tasks_ == 0 means every admitted request was answered.
  // stopping_ and the count change together under drain_mu_: once
  // Shutdown() has set stopping_, no task is counted or submitted.
  std::unique_ptr<exec::Executor> executor_;
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  bool stopping_ = false;   // drain_mu_
  size_t drain_tasks_ = 0;  // drain_mu_
  // The bound: admitted requests whose task has not started. Only the loop
  // thread increments it (so check-then-add never overshoots
  // queue_capacity); each task decrements it when it starts.
  std::atomic<size_t> queued_{0};

  std::mutex risk_mu_;
  std::map<int, RiskEntry> risk_cache_;

  // Introspection plane: a windowed view over the global registry, fed by
  // the admin thread's tick (which also re-evaluates the health verdict),
  // plus the worst-N slow-query log and the request-id source.
  obs::WindowedAggregator window_;
  std::atomic<int> health_{static_cast<int>(HealthState::kOk)};
  std::chrono::steady_clock::time_point started_at_{};
  std::atomic<uint64_t> next_rid_{0};
  SlowQueryLog slow_log_;

  // Distances 0..kMaxDistanceBucket get their own per-distance counters;
  // anything larger lands in the final overflow slot.
  static constexpr int kMaxDistanceBucket = 8;
  static constexpr size_t kDistanceSlots = kMaxDistanceBucket + 2;

  // Registry instruments, resolved once at construction.
  obs::Counter* requests_received_;
  obs::Counter* responses_ok_;
  obs::Counter* shed_;
  obs::Counter* deadline_exceeded_;
  obs::Counter* cancelled_;
  obs::Counter* invalid_;
  obs::Counter* internal_errors_;
  obs::Counter* connections_accepted_;
  obs::Counter* write_errors_;
  obs::Gauge* queue_depth_gauge_;
  obs::Histogram* latency_us_;
  obs::Histogram* batch_size_;
  obs::Counter* admin_requests_;
  obs::Gauge* health_gauge_;
  obs::Counter* health_transitions_;
  obs::Counter* attack_by_distance_[kDistanceSlots];
  obs::Counter* deanon_by_distance_[kDistanceSlots];
};

}  // namespace hinpriv::service

#endif  // HINPRIV_SERVICE_SERVER_H_
