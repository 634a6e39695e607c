#ifndef HINPRIV_UTIL_CANCELLATION_H_
#define HINPRIV_UTIL_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace hinpriv::util {

// Cooperative cancellation token shared between a requester (a server
// worker enforcing a deadline, a signal handler draining a batch run) and
// the long-running computation it wants to be able to stop. The
// computation polls ShouldStop() at its own batch boundaries; nothing is
// preempted, so state stays consistent at every stop point.
//
// All operations are single relaxed/release atomic accesses, which makes
// Cancel() safe to call from a POSIX signal handler (std::atomic store on
// a lock-free atomic is async-signal-safe) and ShouldStop() cheap enough
// for inner loops when paired with a stride (poll every N iterations —
// see core::Dehin's cancellation check).
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  // Requests a stop. Idempotent; never blocks.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  // Arms (or re-arms) an absolute steady-clock deadline; a default-
  // constructed time_point disarms it. Deadlines and Cancel() are
  // independent stop reasons: deadline_exceeded() stays false for a
  // token that was only cancelled.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline.time_since_epoch())
            .count(),
        std::memory_order_relaxed);
  }
  void SetDeadlineAfter(std::chrono::nanoseconds timeout) {
    SetDeadline(std::chrono::steady_clock::now() + timeout);
  }
  void ClearDeadline() { deadline_ns_.store(0, std::memory_order_relaxed); }
  // The armed deadline; a default-constructed time_point when none is.
  std::chrono::steady_clock::time_point deadline() const {
    return std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::nanoseconds(
                deadline_ns_.load(std::memory_order_relaxed))));
  }

  bool deadline_exceeded() const {
    const int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    return deadline != 0 && NowNanos() >= deadline;
  }

  // True once the computation should wind down: cancelled or past the
  // deadline. The one call sites poll.
  bool ShouldStop() const { return cancelled() || deadline_exceeded(); }

  // Re-arms the token for reuse (tests, pooled tokens). Not safe while a
  // computation is still polling it expecting the old decision.
  void Reset() {
    cancelled_.store(false, std::memory_order_relaxed);
    ClearDeadline();
  }

 private:
  static int64_t NowNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::atomic<bool> cancelled_{false};
  // Steady-clock nanoseconds since epoch; 0 = no deadline armed.
  std::atomic<int64_t> deadline_ns_{0};
};

}  // namespace hinpriv::util

#endif  // HINPRIV_UTIL_CANCELLATION_H_
