#include "service/client.h"

#include <unistd.h>

#include <utility>

#include "service/json.h"

namespace hinpriv::service {

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_id_(std::exchange(other.next_id_, 1)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    next_id_ = std::exchange(other.next_id_, 1);
  }
  return *this;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Result<Client> Client::Connect(const std::string& host, uint16_t port) {
  auto fd = ConnectTcp(host, port);
  if (!fd.ok()) return fd.status();
  return Client(fd.value());
}

util::Result<Response> Client::Call(const Request& request) {
  if (fd_ < 0) {
    return util::Status::FailedPrecondition("client is not connected");
  }
  HINPRIV_RETURN_IF_ERROR(WriteFrame(fd_, EncodeRequest(request).Serialize()));
  // Read until our id comes back. A single synchronous client only ever
  // has one request outstanding, so in practice the first frame is ours;
  // the loop makes the matching robust anyway.
  while (true) {
    auto frame = ReadFrame(fd_);
    if (!frame.ok()) return frame.status();
    if (!frame.value().has_value()) {
      return util::Status::IoError("server closed connection mid-call");
    }
    auto doc = JsonValue::Parse(*frame.value());
    if (!doc.ok()) return doc.status();
    auto response = DecodeResponse(doc.value());
    if (!response.ok()) return response.status();
    if (response.value().id == request.id) return response;
  }
}

util::Result<Response> Client::AttackOne(hin::VertexId target,
                                         int max_distance,
                                         double deadline_ms) {
  Request request;
  request.id = next_id_++;
  request.method = Method::kAttackOne;
  request.target = target;
  request.has_target = true;
  request.max_distance = max_distance;
  request.deadline_ms = deadline_ms;
  return Call(request);
}

util::Result<Response> Client::NetworkRisk(int max_distance) {
  Request request;
  request.id = next_id_++;
  request.method = Method::kRisk;
  request.max_distance = max_distance;
  return Call(request);
}

util::Result<Response> Client::EntityRisk(hin::VertexId target,
                                          int max_distance) {
  Request request;
  request.id = next_id_++;
  request.method = Method::kRisk;
  request.target = target;
  request.has_target = true;
  request.max_distance = max_distance;
  return Call(request);
}

util::Result<Response> Client::Stats() {
  Request request;
  request.id = next_id_++;
  request.method = Method::kStats;
  return Call(request);
}

util::Result<Response> Client::Sleep(double sleep_ms, double deadline_ms) {
  Request request;
  request.id = next_id_++;
  request.method = Method::kSleep;
  request.sleep_ms = sleep_ms;
  request.deadline_ms = deadline_ms;
  return Call(request);
}

util::Result<Response> Client::Health() {
  Request request;
  request.id = next_id_++;
  request.method = Method::kHealth;
  return Call(request);
}

util::Result<Response> Client::Metrics(const std::string& path) {
  Request request;
  request.id = next_id_++;
  request.method = Method::kMetrics;
  request.path = path;
  return Call(request);
}

util::Result<Response> Client::TraceStart() {
  Request request;
  request.id = next_id_++;
  request.method = Method::kTraceStart;
  return Call(request);
}

util::Result<Response> Client::TraceStop() {
  Request request;
  request.id = next_id_++;
  request.method = Method::kTraceStop;
  return Call(request);
}

util::Result<Response> Client::TraceDump(const std::string& path) {
  Request request;
  request.id = next_id_++;
  request.method = Method::kTraceDump;
  request.path = path;
  return Call(request);
}

util::Result<Response> Client::ApplyDelta(const std::string& path,
                                          double deadline_ms) {
  Request request;
  request.id = next_id_++;
  request.method = Method::kApplyDelta;
  request.path = path;
  request.deadline_ms = deadline_ms;
  return Call(request);
}

}  // namespace hinpriv::service
