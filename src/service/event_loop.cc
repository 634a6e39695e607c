#include "service/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/trace.h"
#include "service/protocol.h"

namespace hinpriv::service {

namespace {

constexpr uint64_t kListenId = 0;
constexpr uint64_t kEventId = 1;
constexpr size_t kMaxPendingWriteBytes = 64u << 20;
constexpr auto kDrainGrace = std::chrono::milliseconds(5000);

uint32_t DecodeLen(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

}  // namespace

EventLoop::EventLoop(FrameHandler on_frame, Options options)
    : on_frame_(std::move(on_frame)), options_(std::move(options)) {}

EventLoop::~EventLoop() { Shutdown(); }

util::Status EventLoop::Listen(const std::string& host, uint16_t port) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return util::Status::IoError(std::string("epoll_create1: ") +
                                 std::strerror(errno));
  }
  event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (event_fd_ < 0) {
    return util::Status::IoError(std::string("eventfd: ") +
                                 std::strerror(errno));
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return util::Status::IoError(std::string("socket: ") +
                                 std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return util::Status::InvalidArgument("unparseable IPv4 host '" + host +
                                         "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return util::Status::IoError("bind " + host + ":" + std::to_string(port) +
                                 ": " + std::strerror(errno));
  }
  if (::listen(listen_fd_, SOMAXCONN) != 0) {
    return util::Status::IoError(std::string("listen: ") +
                                 std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return util::Status::IoError(std::string("getsockname: ") +
                                 std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return util::Status::IoError(std::string("epoll_ctl(listen): ") +
                                 std::strerror(errno));
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kEventId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) != 0) {
    return util::Status::IoError(std::string("epoll_ctl(eventfd): ") +
                                 std::strerror(errno));
  }
  return util::Status::OK();
}

void EventLoop::Start() {
  if (started_.exchange(true)) return;
  loop_ = std::thread([this] { LoopMain(); });
}

bool EventLoop::Send(uint64_t conn_id, std::string payload) {
  if (finished_.load(std::memory_order_acquire)) return false;
  // Prepend the length prefix here so the loop thread only moves bytes.
  std::string framed;
  framed.reserve(4 + payload.size());
  const uint32_t len = static_cast<uint32_t>(payload.size());
  char prefix[4] = {static_cast<char>(len & 0xff),
                    static_cast<char>((len >> 8) & 0xff),
                    static_cast<char>((len >> 16) & 0xff),
                    static_cast<char>((len >> 24) & 0xff)};
  framed.append(prefix, 4);
  framed.append(payload);
  {
    std::lock_guard<std::mutex> lock(mail_mu_);
    mailbox_.emplace_back(conn_id, std::move(framed));
  }
  WakeLoop();
  return true;
}

void EventLoop::StopAccepting() {
  stop_accepting_.store(true, std::memory_order_release);
  WakeLoop();
}

void EventLoop::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (finished_.load(std::memory_order_acquire)) return;
  shutdown_requested_.store(true, std::memory_order_release);
  WakeLoop();
  if (loop_.joinable()) loop_.join();
  // The loop (if it ever ran) closed every connection before exiting;
  // close the plumbing fds here so a Listen()-without-Start() instance
  // also cleans up.
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  conns_.clear();
  conn_count_.store(0, std::memory_order_release);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  if (event_fd_ >= 0) ::close(event_fd_);
  event_fd_ = -1;
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
  finished_.store(true, std::memory_order_release);
}

size_t EventLoop::num_connections() const {
  return conn_count_.load(std::memory_order_acquire);
}

void EventLoop::WakeLoop() {
  if (event_fd_ < 0) return;
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
}

void EventLoop::LoopMain() {
  obs::SetCurrentThreadName("service/event_loop");
  using Clock = std::chrono::steady_clock;
  Clock::time_point drain_deadline{};
  bool draining = false;
  epoll_event events[64];
  while (true) {
    if (shutdown_requested_.load(std::memory_order_acquire)) {
      if (!draining) {
        draining = true;
        drain_deadline = Clock::now() + kDrainGrace;
      }
      DrainMailbox();
      bool pending = false;
      {
        std::lock_guard<std::mutex> lock(mail_mu_);
        pending = !mailbox_.empty();
      }
      if (!pending) {
        for (const auto& [id, conn] : conns_) {
          if (!conn.write_queue.empty()) {
            pending = true;
            break;
          }
        }
      }
      if (!pending || Clock::now() >= drain_deadline) break;
    }
    if (stop_accepting_.load(std::memory_order_acquire) && listen_fd_ >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    const int timeout_ms = draining ? 10 : -1;
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — only happens on teardown races
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      const uint32_t mask = events[i].events;
      if (id == kListenId) {
        if (!stop_accepting_.load(std::memory_order_acquire)) AcceptReady();
        continue;
      }
      if (id == kEventId) {
        uint64_t v = 0;
        while (::read(event_fd_, &v, sizeof(v)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed earlier this iteration
      Conn* conn = &it->second;
      if (mask & (EPOLLERR | EPOLLHUP)) {
        CloseConn(id);
        continue;
      }
      if ((mask & EPOLLIN) && !ReadReady(id, conn)) {
        CloseConn(id);
        continue;
      }
      // ReadReady's handler may have enqueued an inline (admin) response;
      // re-find in case the handler's Send path raced with nothing — the
      // map is loop-owned, the iterator is still valid.
      if ((mask & EPOLLOUT) && !FlushWrites(id, conn)) {
        CloseConn(id);
        continue;
      }
    }
    DrainMailbox();
  }
  // Teardown on the loop thread: every socket closed exactly once.
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) CloseConn(id);
  // Anything still in the mailbox now has no connection to go to.
  std::deque<std::pair<uint64_t, std::string>> orphaned;
  {
    std::lock_guard<std::mutex> lock(mail_mu_);
    orphaned.swap(mailbox_);
  }
  if (options_.on_dropped_response) {
    for (size_t i = 0; i < orphaned.size(); ++i) options_.on_dropped_response();
  }
}

void EventLoop::AcceptReady() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or listen socket closed under us
    }
    // Responses go out as one buffer, but without this a partial send's
    // tail waits on the client's delayed ACK.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    Conn conn;
    conn.fd = fd;
    conns_.emplace(id, std::move(conn));
    conn_count_.store(conns_.size(), std::memory_order_release);
    if (options_.on_accept) options_.on_accept(id);
  }
}

bool EventLoop::ReadReady(uint64_t id, Conn* conn) {
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->read_buf.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;  // drained
      continue;
    }
    if (n == 0) return false;  // EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  // Slice every complete frame out of the buffer, then erase the consumed
  // prefix once (not per frame — a pipelining client would otherwise make
  // this quadratic).
  size_t off = 0;
  while (conn->read_buf.size() - off >= 4) {
    const uint32_t len = DecodeLen(conn->read_buf.data() + off);
    if (len > kMaxFrameBytes) return false;  // same policy as ReadFrame
    if (conn->read_buf.size() - off - 4 < len) break;
    std::string frame = conn->read_buf.substr(off + 4, len);
    off += 4 + static_cast<size_t>(len);
    on_frame_(id, std::move(frame));
  }
  if (off > 0) conn->read_buf.erase(0, off);
  return true;
}

bool EventLoop::FlushWrites(uint64_t id, Conn* conn) {
  while (!conn->write_queue.empty()) {
    const std::string& front = conn->write_queue.front();
    const size_t remaining = front.size() - conn->write_offset;
    const ssize_t n =
        ::send(conn->fd, front.data() + conn->write_offset, remaining,
               MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (options_.on_dropped_response) {
        // Every queued frame (including the partially written one) is lost.
        for (size_t i = 0; i < conn->write_queue.size(); ++i) {
          options_.on_dropped_response();
        }
      }
      return false;
    }
    conn->write_offset += static_cast<size_t>(n);
    conn->pending_bytes -= static_cast<size_t>(n);
    if (conn->write_offset == front.size()) {
      conn->write_queue.pop_front();
      conn->write_offset = 0;
    }
  }
  UpdateEvents(id, conn);
  return true;
}

void EventLoop::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (options_.on_dropped_response && !conn.write_queue.empty()) {
    for (size_t i = 0; i < conn.write_queue.size(); ++i) {
      options_.on_dropped_response();
    }
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conns_.erase(it);
  conn_count_.store(conns_.size(), std::memory_order_release);
}

void EventLoop::DrainMailbox() {
  std::deque<std::pair<uint64_t, std::string>> batch;
  {
    std::lock_guard<std::mutex> lock(mail_mu_);
    batch.swap(mailbox_);
  }
  for (auto& [id, framed] : batch) {
    auto it = conns_.find(id);
    if (it == conns_.end()) {
      if (options_.on_dropped_response) options_.on_dropped_response();
      continue;
    }
    Conn* conn = &it->second;
    conn->pending_bytes += framed.size();
    conn->write_queue.push_back(std::move(framed));
    if (conn->pending_bytes > kMaxPendingWriteBytes) {
      // Pipelines requests, never reads responses: cut it loose.
      CloseConn(id);
      continue;
    }
    if (!FlushWrites(id, conn)) CloseConn(id);
  }
}

void EventLoop::UpdateEvents(uint64_t id, Conn* conn) {
  const bool want_out = !conn->write_queue.empty();
  if (want_out == conn->epollout_armed) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (want_out) ev.events |= EPOLLOUT;
  ev.data.u64 = id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->epollout_armed = want_out;
  }
}

}  // namespace hinpriv::service
