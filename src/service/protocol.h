#ifndef HINPRIV_SERVICE_PROTOCOL_H_
#define HINPRIV_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hin/types.h"
#include "service/json.h"
#include "util/status.h"

namespace hinpriv::service {

// Wire protocol of the attack service: length-prefixed JSON frames over a
// plain TCP stream. A frame is
//
//   u32 little-endian payload length  |  payload (UTF-8 JSON document)
//
// Requests flow client -> server, responses server -> client, matched by
// the client-chosen `id`. Responses to one connection may arrive out of
// request order (the worker pool processes the queue concurrently), so
// clients must match on id, not position.
//
// Request document:
//   {"id": 7, "method": "attack_one", "target": 123,
//    "max_distance": 2, "deadline_ms": 250}
//   {"id": 8, "method": "risk", "max_distance": 2}         // network R(T)
//   {"id": 9, "method": "risk", "target": 123, ...}        // per-entity R(t)
//   {"id": 10, "method": "stats"}
//   {"id": 11, "method": "sleep", "sleep_ms": 50}          // load testing
//   {"id": 12, "method": "health"}
//   {"id": 13, "method": "metrics", "path": "/tmp/m.prom"} // path optional
//   {"id": 14, "method": "trace_start"}
//   {"id": 15, "method": "trace_stop"}
//   {"id": 16, "method": "trace_dump", "path": "/tmp/t.json"}
//   {"id": 17, "method": "apply_delta", "path": "/tmp/deltas.hinpriv"}
//
// The introspection verbs (stats, health, metrics, trace_*) are *admin
// methods*: the server answers them on its admin thread, bypassing the
// admission queue, so they respond within deadline even while the
// serving path is saturated and shedding.
//
// apply_delta is NOT an admin method: it mutates the auxiliary graph and
// the warm attack state, so it rides the admission queue and the same
// deadline machinery as attack_one, taking the server's warm-state lock
// exclusively batch by batch. `path` names a server-side
// hinpriv-delta stream (the graphs live server-side; shipping multi-GB
// deltas through 16 MB frames would be the wrong layer).
//
// Response document:
//   {"id": 7, "code": "OK", "result": {...}}
//   {"id": 7, "code": "BUSY"|"DEADLINE_EXCEEDED"|"CANCELLED"|
//             "INVALID_REQUEST"|"SHUTTING_DOWN"|"INTERNAL",
//    "error": "human-readable reason"}

// Frames larger than this are rejected outright — a corrupt or hostile
// length prefix must not drive a giant allocation.
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;

// Candidate sets can be nearly the whole auxiliary graph for weakly
// identified targets; an attack_one answer encodes at most this many so
// one response cannot approach kMaxFrameBytes. The count and the
// `truncated` flag are always exact.
inline constexpr size_t kMaxEncodedCandidates = 1024;

enum class Method {
  kAttackOne,
  kRisk,
  kStats,
  kSleep,
  kHealth,
  kMetrics,
  kTraceStart,
  kTraceStop,
  kTraceDump,
  kApplyDelta,
};

const char* MethodName(Method method);
std::optional<Method> ParseMethod(std::string_view name);

// True for the introspection verbs that the server answers on its admin
// thread instead of through the admission queue.
bool IsAdminMethod(Method method);

enum class ResponseCode {
  kOk,
  kBusy,               // admission control shed the request (queue full)
  kDeadlineExceeded,   // per-request deadline expired (queued or mid-attack)
  kCancelled,
  kInvalidRequest,
  kShuttingDown,       // server is draining; no new work admitted
  kInternal,
};

const char* ResponseCodeName(ResponseCode code);
std::optional<ResponseCode> ParseResponseCode(std::string_view name);

struct Request {
  uint64_t id = 0;
  Method method = Method::kStats;
  // attack_one: the anonymized vertex to de-anonymize. risk: optional —
  // present selects per-entity R(t_i), absent the network R(T).
  hin::VertexId target = 0;
  bool has_target = false;
  // < 0 = use the server's configured default.
  int max_distance = -1;
  // Wall-clock budget measured from admission; <= 0 = server default
  // (which may itself be "none").
  double deadline_ms = 0.0;
  // sleep method only.
  double sleep_ms = 0.0;
  // metrics / trace_dump: when nonempty the server writes the document to
  // this server-side path instead of returning it inline (the only way out
  // for traces larger than kMaxFrameBytes).
  std::string path;
};

struct Response {
  uint64_t id = 0;
  ResponseCode code = ResponseCode::kOk;
  std::string error;  // empty for kOk
  JsonValue result;   // method-specific payload (object) for kOk
};

// A failed response: `code` with its human-readable reason.
inline Response ErrorResponse(ResponseCode code, std::string error,
                              uint64_t id = 0) {
  Response response;
  response.id = id;
  response.code = code;
  response.error = std::move(error);
  return response;
}

JsonValue EncodeRequest(const Request& request);
util::Result<Request> DecodeRequest(const JsonValue& doc);

JsonValue EncodeResponse(const Response& response);
util::Result<Response> DecodeResponse(const JsonValue& doc);

// An OK attack_one answer over `candidates`, the auxiliary-graph ids
// ascending as Dehin returns them: `num_candidates` is their exact count
// and the first kMaxEncodedCandidates are encoded (`truncated` when
// more exist). De-anonymization succeeded iff the count is one; the
// entity's risk is then 1/k with k the count (Definition 7 with loss 1).
Response AttackAnswer(hin::VertexId target, int max_distance,
                      const std::vector<hin::VertexId>& candidates);

// Frame I/O over a socket (or any stream) fd. Writes are complete-or-error
// (short writes retried, EINTR transparent, SIGPIPE suppressed via
// MSG_NOSIGNAL); reads return nullopt on a clean end-of-stream at a frame
// boundary and Corruption/IoError otherwise.
util::Status WriteFrame(int fd, std::string_view payload);
util::Result<std::optional<std::string>> ReadFrame(int fd);

// A blocking, close-on-exec TCP connection to an IPv4 host, with
// TCP_NODELAY set: frames go out as a 4-byte prefix then the payload, and
// with Nagle on the payload write stalls on the peer's delayed ACK of the
// prefix (~40ms per request).
util::Result<int> ConnectTcp(const std::string& host, uint16_t port);

}  // namespace hinpriv::service

#endif  // HINPRIV_SERVICE_PROTOCOL_H_
