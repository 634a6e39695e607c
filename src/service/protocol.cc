#include "service/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace hinpriv::service {

namespace {

// send() when the fd is a socket (MSG_NOSIGNAL turns a peer hangup into
// EPIPE instead of killing the process with SIGPIPE); write() fallback so
// the frame codec also works over pipes in tests.
ssize_t SendSome(int fd, const char* data, size_t len) {
  const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
  if (n < 0 && errno == ENOTSOCK) return ::write(fd, data, len);
  return n;
}

util::Status WriteAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    const ssize_t n = SendSome(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::Status::IoError(std::string("frame write: ") +
                                   std::strerror(errno));
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return util::Status::OK();
}

// Reads exactly `len` bytes. bytes_read reports progress so the caller can
// distinguish clean EOF (0 bytes of a new frame) from a truncated frame.
util::Status ReadAll(int fd, char* data, size_t len, size_t* bytes_read) {
  *bytes_read = 0;
  while (*bytes_read < len) {
    const ssize_t n = ::read(fd, data + *bytes_read, len - *bytes_read);
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::Status::IoError(std::string("frame read: ") +
                                   std::strerror(errno));
    }
    if (n == 0) {
      return util::Status::Corruption("frame read: unexpected end of stream");
    }
    *bytes_read += static_cast<size_t>(n);
  }
  return util::Status::OK();
}

}  // namespace

const char* MethodName(Method method) {
  switch (method) {
    case Method::kAttackOne:
      return "attack_one";
    case Method::kRisk:
      return "risk";
    case Method::kStats:
      return "stats";
    case Method::kSleep:
      return "sleep";
    case Method::kHealth:
      return "health";
    case Method::kMetrics:
      return "metrics";
    case Method::kTraceStart:
      return "trace_start";
    case Method::kTraceStop:
      return "trace_stop";
    case Method::kTraceDump:
      return "trace_dump";
    case Method::kApplyDelta:
      return "apply_delta";
  }
  return "unknown";
}

std::optional<Method> ParseMethod(std::string_view name) {
  if (name == "attack_one") return Method::kAttackOne;
  if (name == "risk") return Method::kRisk;
  if (name == "stats") return Method::kStats;
  if (name == "sleep") return Method::kSleep;
  if (name == "health") return Method::kHealth;
  if (name == "metrics") return Method::kMetrics;
  if (name == "trace_start") return Method::kTraceStart;
  if (name == "trace_stop") return Method::kTraceStop;
  if (name == "trace_dump") return Method::kTraceDump;
  if (name == "apply_delta") return Method::kApplyDelta;
  return std::nullopt;
}

bool IsAdminMethod(Method method) {
  switch (method) {
    case Method::kStats:
    case Method::kHealth:
    case Method::kMetrics:
    case Method::kTraceStart:
    case Method::kTraceStop:
    case Method::kTraceDump:
      return true;
    case Method::kAttackOne:
    case Method::kRisk:
    case Method::kSleep:
    case Method::kApplyDelta:
      return false;
  }
  return false;
}

const char* ResponseCodeName(ResponseCode code) {
  switch (code) {
    case ResponseCode::kOk:
      return "OK";
    case ResponseCode::kBusy:
      return "BUSY";
    case ResponseCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case ResponseCode::kCancelled:
      return "CANCELLED";
    case ResponseCode::kInvalidRequest:
      return "INVALID_REQUEST";
    case ResponseCode::kShuttingDown:
      return "SHUTTING_DOWN";
    case ResponseCode::kInternal:
      return "INTERNAL";
  }
  return "INTERNAL";
}

std::optional<ResponseCode> ParseResponseCode(std::string_view name) {
  if (name == "OK") return ResponseCode::kOk;
  if (name == "BUSY") return ResponseCode::kBusy;
  if (name == "DEADLINE_EXCEEDED") return ResponseCode::kDeadlineExceeded;
  if (name == "CANCELLED") return ResponseCode::kCancelled;
  if (name == "INVALID_REQUEST") return ResponseCode::kInvalidRequest;
  if (name == "SHUTTING_DOWN") return ResponseCode::kShuttingDown;
  if (name == "INTERNAL") return ResponseCode::kInternal;
  return std::nullopt;
}

JsonValue EncodeRequest(const Request& request) {
  JsonValue doc = JsonValue::Object();
  doc.Set("id", JsonValue::Int(static_cast<int64_t>(request.id)));
  doc.Set("method", JsonValue::Str(MethodName(request.method)));
  if (request.has_target) {
    doc.Set("target", JsonValue::Int(request.target));
  }
  if (request.max_distance >= 0) {
    doc.Set("max_distance", JsonValue::Int(request.max_distance));
  }
  if (request.deadline_ms > 0) {
    doc.Set("deadline_ms", JsonValue::Number(request.deadline_ms));
  }
  if (request.method == Method::kSleep) {
    doc.Set("sleep_ms", JsonValue::Number(request.sleep_ms));
  }
  if (!request.path.empty()) {
    doc.Set("path", JsonValue::Str(request.path));
  }
  return doc;
}

util::Result<Request> DecodeRequest(const JsonValue& doc) {
  if (!doc.is_object()) {
    return util::Status::InvalidArgument("request is not a JSON object");
  }
  Request request;
  const int64_t id = doc.GetInt("id", -1);
  if (id < 0) {
    return util::Status::InvalidArgument("request missing nonnegative 'id'");
  }
  request.id = static_cast<uint64_t>(id);
  const std::string method_name = doc.GetString("method");
  const auto method = ParseMethod(method_name);
  if (!method.has_value()) {
    return util::Status::InvalidArgument("unknown method '" + method_name +
                                         "'");
  }
  request.method = *method;
  if (const JsonValue* target = doc.Find("target"); target != nullptr) {
    const int64_t value = target->AsInt(-1);
    if (value < 0 || value > static_cast<int64_t>(hin::kInvalidVertex)) {
      return util::Status::InvalidArgument("'target' out of range");
    }
    request.target = static_cast<hin::VertexId>(value);
    request.has_target = true;
  }
  if (request.method == Method::kAttackOne && !request.has_target) {
    return util::Status::InvalidArgument("attack_one requires 'target'");
  }
  // Range-checked as the int64 it arrived as, then narrowed.
  const int64_t max_distance = doc.GetInt("max_distance", -1);
  if (max_distance > kMaxDistance) {
    return util::Status::InvalidArgument("'max_distance' out of range");
  }
  request.max_distance =
      max_distance < 0 ? -1 : static_cast<int>(max_distance);
  request.deadline_ms = doc.GetDouble("deadline_ms", 0.0);
  request.sleep_ms = doc.GetDouble("sleep_ms", 0.0);
  request.path = doc.GetString("path");
  return request;
}

JsonValue EncodeResponse(const Response& response) {
  JsonValue doc = JsonValue::Object();
  doc.Set("id", JsonValue::Int(static_cast<int64_t>(response.id)));
  doc.Set("code", JsonValue::Str(ResponseCodeName(response.code)));
  if (!response.error.empty()) {
    doc.Set("error", JsonValue::Str(response.error));
  }
  if (response.code == ResponseCode::kOk) {
    doc.Set("result", response.result);
  }
  return doc;
}

util::Result<Response> DecodeResponse(const JsonValue& doc) {
  if (!doc.is_object()) {
    return util::Status::InvalidArgument("response is not a JSON object");
  }
  Response response;
  response.id = static_cast<uint64_t>(doc.GetInt("id", 0));
  const std::string code_name = doc.GetString("code");
  const auto code = ParseResponseCode(code_name);
  if (!code.has_value()) {
    return util::Status::InvalidArgument("unknown response code '" +
                                         code_name + "'");
  }
  response.code = *code;
  response.error = doc.GetString("error");
  if (const JsonValue* result = doc.Find("result"); result != nullptr) {
    response.result = *result;
  }
  return response;
}

Response AttackAnswer(hin::VertexId target, int max_distance,
                      const std::vector<hin::VertexId>& candidates) {
  const size_t encoded = std::min(candidates.size(), kMaxEncodedCandidates);
  JsonValue list = JsonValue::Array();
  for (size_t i = 0; i < encoded; ++i) {
    list.Append(JsonValue::Int(candidates[i]));
  }
  Response response;
  response.result = JsonValue::Object();
  response.result.Set("target", JsonValue::Int(target));
  response.result.Set("max_distance", JsonValue::Int(max_distance));
  response.result.Set("num_candidates",
                      JsonValue::Int(static_cast<int64_t>(candidates.size())));
  response.result.Set("deanonymized", JsonValue::Bool(candidates.size() == 1));
  response.result.Set("candidates", std::move(list));
  response.result.Set("truncated",
                      JsonValue::Bool(encoded < candidates.size()));
  return response;
}

util::Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return util::Status::InvalidArgument("frame payload too large");
  }
  const uint32_t length = static_cast<uint32_t>(payload.size());
  // Little-endian length prefix, explicitly serialized so the wire format
  // does not depend on host byte order.
  char header[4] = {
      static_cast<char>(length & 0xFF),
      static_cast<char>((length >> 8) & 0xFF),
      static_cast<char>((length >> 16) & 0xFF),
      static_cast<char>((length >> 24) & 0xFF),
  };
  HINPRIV_RETURN_IF_ERROR(WriteAll(fd, header, sizeof(header)));
  return WriteAll(fd, payload.data(), payload.size());
}

util::Result<std::optional<std::string>> ReadFrame(int fd) {
  char header[4];
  size_t bytes_read = 0;
  util::Status status = ReadAll(fd, header, sizeof(header), &bytes_read);
  if (!status.ok()) {
    if (bytes_read == 0 && status.code() == util::Status::Code::kCorruption) {
      // End of stream before any byte of a new frame: clean disconnect.
      return std::optional<std::string>(std::nullopt);
    }
    return status;
  }
  const uint32_t length = static_cast<uint32_t>(
      static_cast<unsigned char>(header[0]) |
      (static_cast<unsigned char>(header[1]) << 8) |
      (static_cast<unsigned char>(header[2]) << 16) |
      (static_cast<unsigned char>(header[3]) << 24));
  if (length > kMaxFrameBytes) {
    return util::Status::Corruption("frame length " + std::to_string(length) +
                                    " exceeds limit");
  }
  std::string payload(length, '\0');
  if (length > 0) {
    HINPRIV_RETURN_IF_ERROR(
        ReadAll(fd, payload.data(), payload.size(), &bytes_read));
  }
  return std::optional<std::string>(std::move(payload));
}

util::Result<int> ConnectTcp(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return util::Status::InvalidArgument("unparseable IPv4 host '" + host +
                                         "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return util::Status::IoError(std::string("socket: ") +
                                 std::strerror(errno));
  }
  int rc = 0;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const util::Status status = util::Status::IoError(
        "connect " + host + ":" + std::to_string(port) + ": " +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace hinpriv::service
