#ifndef HINPRIV_SHARD_ROUTER_H_
#define HINPRIV_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "service/protocol.h"

namespace hinpriv::shard {

// One shard worker's address. The coordinator never learns the shard plan
// itself — partition membership is baked into each worker's slice — so the
// endpoint list *is* the tier topology: position i handles shard i.
struct ShardEndpoint {
  std::string host;
  uint16_t port = 0;
};

// One shard's answer to a scattered request. `transport_ok` false means
// the shard could not be reached or the exchange failed mid-frame (its
// `error` says why); the response code (BUSY, DEADLINE_EXCEEDED, ...) is a
// *successful* transport whose verdict the merge policy handles.
struct ShardReply {
  size_t shard = 0;
  bool transport_ok = false;
  service::Response response;
  std::string error;
};

// Scatter-gather fabric between the coordinator and its shard workers:
// pooled blocking connections over the existing length-prefixed protocol.
// Each ScatterToAll() checks one connection per shard out of the idle
// pool (connecting fresh when the pool is dry), writes every request
// frame first, then reads the replies in shard order — the shards compute
// concurrently during the sequential gather. A connection that errors is
// closed, not returned, so a restarted shard heals on the next call.
// Request ids on these connections are the router's own, so a reply that
// surfaces late on a reused connection never matches a later request.
//
// Thread-safe: concurrent callers each hold their own checked-out
// connections; only the idle pool is locked.
class ShardRouter {
 public:
  explicit ShardRouter(std::vector<ShardEndpoint> endpoints);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  const ShardEndpoint& endpoint(size_t shard) const {
    return endpoints_[shard];
  }

  // Fans `request` (under a fresh id, same body) to every shard and
  // gathers one reply per shard, indexed by shard. recv_timeout_ms > 0
  // bounds each read via SO_RCVTIMEO — the coordinator passes its
  // remaining deadline plus a grace margin so a wedged shard cannot hold
  // a worker hostage.
  std::vector<ShardReply> ScatterToAll(service::Request request,
                                       double recv_timeout_ms);

 private:
  // An idle pooled fd when `pooled` and one exists, else a fresh
  // connection; -1 with `error` set on failure.
  int Checkout(size_t shard, bool pooled, std::string* error);
  void Return(size_t shard, int fd);

  std::vector<ShardEndpoint> endpoints_;
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<std::vector<int>> idle_;
};

}  // namespace hinpriv::shard

#endif  // HINPRIV_SHARD_ROUTER_H_
