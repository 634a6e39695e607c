#ifndef HINPRIV_EXEC_EXECUTOR_H_
#define HINPRIV_EXEC_EXECUTOR_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/cancellation.h"

namespace hinpriv::obs {
class Counter;
class Gauge;
}  // namespace hinpriv::obs

namespace hinpriv::exec {

// The one place the "0 means every CPU this process may use" convention
// lives: 0 resolves to the number of CPUs in the calling thread's affinity
// mask (sched_getaffinity), so a pool started under taskset or a cpuset
// limit gets one worker per allowed CPU, not per CPU of the machine;
// hardware_concurrency() is the fallback when the mask cannot be read.
// Any other value passes through. Always returns at least 1.
size_t ResolveThreads(size_t requested);

// The largest worker count a configuration may request. Front-ends
// (service::Server::Start, hinpriv_cli) refuse more before any thread
// starts, so a negative count cast to size_t comes back as an error, not
// as an abort in the pool's constructor.
inline constexpr size_t kMaxWorkers = 1024;

// Two-level task priority. kHigh is reserved for latency-critical control
// work (service request admission); kNormal is throughput work (scan
// grains, batch targets). Workers always drain kHigh submissions before
// touching any normal-priority task, so request admission never starves
// behind a backlog of scan grains.
enum class Priority { kHigh, kNormal };

// The grain a ParallelFor (or the intra-query candidate scan riding on
// it) uses when it leaves `grain` at 0: about 8 claims per worker — enough
// slack that skewed iteration costs rebalance, few enough that the shared
// claim counter stays cold — clamped to [1, 8192] so huge ranges don't
// degenerate into per-item tasks.
inline size_t DefaultGrain(size_t n, size_t num_workers) {
  constexpr size_t kChunksPerWorker = 8;
  constexpr size_t kMaxGrain = 8192;
  return std::clamp<size_t>(
      n / (std::max<size_t>(num_workers, 1) * kChunksPerWorker), 1,
      kMaxGrain);
}

struct ParallelForOptions {
  // Iterations per claimed chunk; 0 picks DefaultGrain().
  size_t grain = 0;
  // Polled before every grain claim; once it fires no further grain is
  // claimed (grains already claimed run to completion, so the executed set
  // stays exactly [0, completed)).
  const util::CancelToken* cancel = nullptr;
};

struct ParallelForResult {
  // Iterations executed; always a prefix [0, completed) of the range.
  size_t completed = 0;
  // True when the loop ended early via the cancel token.
  bool stopped = false;
};

// Persistent executor: a fixed pool of workers over two mutex-backed
// FIFOs, one per priority. A worker takes the oldest kHigh task first,
// then the oldest kNormal one; every submission, ParallelFor's forked
// claim loops included, goes through them. Idle workers sleep on a
// condition variable behind a seq_cst epoch/sleeper-count handshake, so
// an enqueue from any thread can never be missed.
//
// Obs wiring: exec/tasks, exec/steals, exec/parallel_fors counters;
// exec/queue_high, exec/queue_normal, exec/workers gauges; each executed
// task runs under an "exec/task" trace span on a thread named
// "exec/worker-N". exec/steals counts the forked claim loops that claimed
// at least one grain, each on a worker other than the ParallelFor's
// caller; exec/queue_normal counts queued forks with the other kNormal
// tasks.
class Executor {
 public:
  // ResolveThreads() is applied to num_threads (0 = one worker per CPU
  // the constructing thread may run on).
  explicit Executor(size_t num_threads = 0);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Process-wide shared pool, sized by ResolveThreads(0) on first use and
  // joined at static destruction.
  static Executor& Global();

  // The executor owning the calling worker thread, nullptr when called
  // from any other thread.
  static Executor* Current();

  size_t num_workers() const { return workers_.size(); }

  // Fire-and-forget. fn must not throw (uncaught exceptions are counted,
  // reported to stderr once, and dropped); use ParallelFor when exceptions
  // need to propagate to a joiner.
  void Submit(std::function<void()> fn, Priority priority = Priority::kNormal);

  // Runs body(begin, end) over subranges that exactly tile [0, n). Grains
  // are claimed dynamically from a shared counter, so skewed iteration
  // costs rebalance across workers; the caller participates inline, which
  // makes nested calls from worker context deadlock-free. Exceptions from
  // body propagate to the caller (first one wins). Deterministic-output
  // parallelism is the intended use: body writes to per-index or
  // per-grain slots, the caller merges them in index order afterwards.
  ParallelForResult ParallelFor(size_t n,
                                const std::function<void(size_t, size_t)>& body,
                                const ParallelForOptions& options = {});

 private:
  struct Task {
    std::function<void()> fn;
    // Request id active on the submitting thread, re-installed around fn()
    // so spans recorded inside worker-side work (candidate-scan grains,
    // drained service requests) attribute to the originating request.
    uint64_t rid = 0;
  };

  struct PFState;

  void WorkerMain(size_t index);
  // Pops and runs the oldest kHigh task, else the oldest kNormal one;
  // false when both FIFOs are empty.
  bool RunOneTask();
  // Under queue_mu_: refreshes the two queue gauges and num_queued_.
  void PublishQueueSizes();
  void NotifyWork();
  // Runs grains until the range is exhausted, stopped or cancelled.
  // `forked` marks a claim loop that runs as a task rather than inline in
  // ParallelFor's caller.
  void ClaimLoop(const std::shared_ptr<PFState>& state, bool forked);

  std::mutex queue_mu_;
  std::deque<Task> queue_high_;    // guarded by queue_mu_
  std::deque<Task> queue_normal_;  // guarded by queue_mu_
  // Mirror of the total queued count so an idle scan can skip the mutex
  // when both FIFOs are empty.
  std::atomic<size_t> num_queued_{0};

  // Sleep/wake handshake: a producer bumps wake_epoch_ after enqueueing
  // and only then reads num_sleepers_; a would-be sleeper increments
  // num_sleepers_ and only then re-reads the epoch. With seq_cst on both,
  // at least one side sees the other, so no wakeup is lost.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<uint64_t> wake_epoch_{0};
  std::atomic<size_t> num_sleepers_{0};
  std::atomic<bool> stop_{false};

  obs::Counter* tasks_counter_;
  obs::Counter* steals_counter_;
  obs::Counter* parallel_fors_counter_;
  obs::Counter* uncaught_counter_;
  obs::Gauge* queue_high_gauge_;
  obs::Gauge* queue_normal_gauge_;

  // Declared last: the threads use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace hinpriv::exec

#endif  // HINPRIV_EXEC_EXECUTOR_H_
