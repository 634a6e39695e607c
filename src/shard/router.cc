#include "shard/router.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>

#include "obs/trace.h"
#include "service/json.h"

namespace hinpriv::shard {

using service::JsonValue;

namespace {

void SetRecvTimeout(int fd, double timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000.0);
  tv.tv_usec = static_cast<suseconds_t>(
      std::fmod(timeout_ms, 1000.0) * 1000.0);
  if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1000;  // floor: 1ms
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void ClearRecvTimeout(int fd) {
  timeval tv{};  // zero = block forever (the default)
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

ShardRouter::ShardRouter(std::vector<ShardEndpoint> endpoints)
    : endpoints_(std::move(endpoints)), idle_(endpoints_.size()) {}

ShardRouter::~ShardRouter() {
  for (const std::vector<int>& pool : idle_) {
    for (int fd : pool) ::close(fd);
  }
}

int ShardRouter::Checkout(size_t shard, bool pooled, std::string* error) {
  if (pooled) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_[shard].empty()) {
      const int fd = idle_[shard].back();
      idle_[shard].pop_back();
      return fd;
    }
  }
  const ShardEndpoint& ep = endpoints_[shard];
  auto fd = service::ConnectTcp(ep.host, ep.port);
  if (!fd.ok()) {
    *error = fd.status().message();
    return -1;
  }
  return fd.value();
}

void ShardRouter::Return(size_t shard, int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  idle_[shard].push_back(fd);
}

std::vector<ShardReply> ShardRouter::ScatterToAll(service::Request request,
                                                  double recv_timeout_ms) {
  HINPRIV_SPAN("shard/scatter");
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  const size_t n = endpoints_.size();
  std::vector<ShardReply> replies(n);
  std::vector<int> fds(n, -1);
  const std::string payload = service::EncodeRequest(request).Serialize();

  // Scatter: write the frame to every reachable shard before reading any
  // reply, so all shards compute concurrently.
  for (size_t s = 0; s < n; ++s) {
    replies[s].shard = s;
    // A pooled fd may be stale (the shard restarted under us); one fresh
    // connection is a cheap second chance before reporting the shard down.
    for (const bool pooled : {true, false}) {
      const int fd = Checkout(s, pooled, &replies[s].error);
      if (fd < 0) break;
      const util::Status wrote = service::WriteFrame(fd, payload);
      if (wrote.ok()) {
        fds[s] = fd;
        replies[s].error.clear();
        break;
      }
      ::close(fd);
      replies[s].error = wrote.ToString();
    }
  }

  // Gather: one reply per shard, in shard order. Later shards keep
  // computing while earlier ones are read, so total wall time is
  // max(shard latencies) + merge, not the sum.
  for (size_t s = 0; s < n; ++s) {
    const int fd = fds[s];
    if (fd < 0) continue;
    SetRecvTimeout(fd, recv_timeout_ms);
    auto frame = service::ReadFrame(fd);
    if (!frame.ok() || !frame.value().has_value()) {
      replies[s].error = frame.ok() ? "shard closed connection mid-call"
                                    : frame.status().ToString();
      ::close(fd);
      continue;
    }
    auto doc = JsonValue::Parse(*frame.value());
    if (!doc.ok()) {
      replies[s].error = doc.status().ToString();
      ::close(fd);
      continue;
    }
    auto response = service::DecodeResponse(doc.value());
    if (!response.ok() || response.value().id != request.id) {
      // An id mismatch means the stream is desynchronized (a previous
      // timed-out reply surfacing late); the connection is poisoned.
      replies[s].error = response.ok() ? "shard reply id mismatch"
                                       : response.status().ToString();
      ::close(fd);
      continue;
    }
    replies[s].transport_ok = true;
    replies[s].response = std::move(response).value();
    ClearRecvTimeout(fd);
    Return(s, fd);
  }
  return replies;
}

}  // namespace hinpriv::shard
