#ifndef HINPRIV_SERVICE_EVENT_LOOP_H_
#define HINPRIV_SERVICE_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace hinpriv::service {

// Non-blocking epoll front-end for the attack service: one thread owning
// every socket. The loop accepts, assembles length-prefixed frames from
// readiness-driven reads, and hands each complete frame to the server's
// handler *on the loop thread*; responses are enqueued from any thread via
// Send() (a worker or the admin thread finishes a request, enqueues, and
// wakes the loop through an eventfd) and flushed by the loop, with
// EPOLLOUT armed only while a connection has unsent bytes.
//
// Contract with the handler: it runs on the loop thread, so it only
// parses and hands off, and never computes or blocks. Serving verbs are
// admitted into the bounded queue (or shed BUSY) and run on the
// executor; admin verbs go to the server's admin thread. The loop never
// runs request work, so one slow answer cannot stall the other
// connections' reads and writes.
//
// Backpressure and hygiene:
//   * a frame whose length prefix exceeds kMaxFrameBytes closes the
//     connection;
//   * a connection holding more than kMaxPendingWriteBytes (64 MB) of
//     unsent responses is disconnected — a client that pipelines requests
//     but never reads cannot grow the write queues unboundedly;
//   * Shutdown() drains: pending writes are flushed (bounded by a 5 s
//     grace), then every socket is closed and the thread joined.
class EventLoop {
 public:
  struct Options {
    // Loop-thread callback on every accepted connection (telemetry).
    std::function<void(uint64_t)> on_accept;
    // Called when a queued response is discarded — its connection died
    // first, or the write failed (the peer hung up without waiting).
    std::function<void()> on_dropped_response;
  };

  // Called on the loop thread with every complete frame payload.
  using FrameHandler = std::function<void(uint64_t conn_id, std::string frame)>;

  EventLoop(FrameHandler on_frame, Options options);
  ~EventLoop();  // implies Shutdown()

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Creates the listening socket (non-blocking) and the epoll/eventfd
  // plumbing. Must precede Start().
  util::Status Listen(const std::string& host, uint16_t port);

  // The actually-bound port (after Listen with port 0).
  uint16_t port() const { return port_; }

  // Spawns the loop thread.
  void Start();

  // Queues one response frame (the loop adds the length prefix) for
  // `conn_id` and wakes the loop; if the connection is already gone by
  // flush time the response is dropped and on_dropped_response fires.
  // Returns false only when the loop has already shut down. Thread-safe;
  // callable from the loop thread itself (admin verbs answering inline).
  bool Send(uint64_t conn_id, std::string payload);

  // Stops accepting new connections; established ones keep serving.
  // Thread-safe, idempotent.
  void StopAccepting();

  // Flushes pending writes (up to the drain grace), closes every socket,
  // stops and joins the loop thread. Idempotent.
  void Shutdown();

  // Live connection count (observability).
  size_t num_connections() const;

 private:
  struct Conn {
    int fd = -1;
    std::string read_buf;
    // Unsent frames; front() is partially written up to write_offset.
    std::deque<std::string> write_queue;
    size_t write_offset = 0;
    size_t pending_bytes = 0;
    bool epollout_armed = false;
  };

  void LoopMain();
  void AcceptReady();
  // Reads until EAGAIN, slicing complete frames to the handler. Returns
  // false when the connection must be closed (EOF, error, oversize frame).
  bool ReadReady(uint64_t id, Conn* conn);
  // Writes until EAGAIN or empty; arms/disarms EPOLLOUT. Returns false on
  // a fatal write error.
  bool FlushWrites(uint64_t id, Conn* conn);
  void CloseConn(uint64_t id);
  void DrainMailbox();
  void UpdateEvents(uint64_t id, Conn* conn);
  void WakeLoop();

  FrameHandler on_frame_;
  Options options_;

  int epoll_fd_ = -1;
  int event_fd_ = -1;
  int listen_fd_ = -1;
  uint16_t port_ = 0;

  std::thread loop_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_accepting_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> finished_{false};
  std::mutex shutdown_mu_;

  // Cross-thread mailbox: responses enqueued by workers, drained by the
  // loop each iteration.
  std::mutex mail_mu_;
  std::deque<std::pair<uint64_t, std::string>> mailbox_;

  // Owned by the loop thread after Start(); conn_count_ mirrors size() for
  // cross-thread reads.
  std::unordered_map<uint64_t, Conn> conns_;
  std::atomic<size_t> conn_count_{0};
  uint64_t next_conn_id_ = 2;  // 0 = listen socket, 1 = eventfd
};

}  // namespace hinpriv::service

#endif  // HINPRIV_SERVICE_EVENT_LOOP_H_
