#ifndef HINPRIV_EXEC_EXECUTOR_H_
#define HINPRIV_EXEC_EXECUTOR_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/work_stealing_deque.h"
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

// Two-level task priority. kHigh is reserved for latency-critical control
// work (service request admission); kNormal is throughput work (scan
// grains, batch targets). Workers always drain kHigh submissions before
// touching any normal-priority source, so request admission never starves
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
  // Priority of the forked claim-loop tasks.
  Priority priority = Priority::kNormal;
};

struct ParallelForResult {
  // Iterations executed; always a prefix [0, completed) of the range.
  size_t completed = 0;
  // True when the loop ended early via the cancel token.
  bool stopped = false;
};

// Persistent work-stealing executor: a fixed pool of workers, one
// Chase–Lev deque per worker, plus two mutex-backed injection queues for
// submissions from non-worker threads (and for all kHigh work).
//
// Scheduling order in each worker: high injection queue, own deque
// (LIFO), normal injection queue, then stealing from sibling deques
// (random victim order, FIFO from the victim's top).
//
// Submissions from inside a worker of the same executor go to that
// worker's own deque (stealable by idle siblings); everything else goes
// through the injection queues. Idle workers sleep on a condition
// variable behind a seq_cst epoch/sleeper-count handshake, so an enqueue
// from any thread can never be missed.
//
// Obs wiring: exec/tasks, exec/steals, exec/parallel_fors counters;
// exec/queue_high, exec/queue_normal, exec/workers gauges; each executed
// task runs under an "exec/task" trace span on a thread named
// "exec/worker-N".
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
  // reported to stderr once, and dropped); use TaskGroup or ParallelFor
  // when exceptions need to propagate to a joiner.
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
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    // Request id active on the submitting thread, re-installed around fn()
    // so spans recorded inside worker-side work (candidate-scan grains,
    // drained service requests) attribute to the originating request.
    uint64_t rid = 0;
  };

  struct Worker {
    WorkStealingDeque deque;
    std::thread thread;
  };

  struct PFState;

  void WorkerMain(size_t index);
  // Finds and runs one task; high injection is only consulted by the
  // worker main loop (include_high), never by helpers nested inside a
  // running task, so a request task can't recurse into another request.
  bool RunOneTask(Worker* self, bool include_high);
  Task* TryPopInjected(Priority priority);
  Task* TrySteal(Worker* self);
  void Enqueue(Task* task, Priority priority);
  void NotifyWork();
  void RunTask(Task* task);
  void ClaimLoop(const std::shared_ptr<PFState>& state);

  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex inject_mu_;
  std::deque<Task*> inject_high_;
  std::deque<Task*> inject_normal_;
  // Mirrors of the queue sizes so the hot scheduling path can skip the
  // mutex when a queue is empty.
  std::atomic<size_t> inject_high_size_{0};
  std::atomic<size_t> inject_normal_size_{0};

  // Sleep/wake handshake: a producer bumps wake_epoch_ after enqueueing
  // and only then reads num_sleepers_; a would-be sleeper increments
  // num_sleepers_ and only then re-reads the epoch. With seq_cst on both,
  // at least one side sees the other, so no wakeup is lost.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<uint64_t> wake_epoch_{0};
  std::atomic<size_t> num_sleepers_{0};
  std::atomic<bool> stop_{false};

  std::atomic<uint64_t> steal_seed_{0x9e3779b97f4a7c15ull};

  obs::Counter* tasks_counter_;
  obs::Counter* steals_counter_;
  obs::Counter* parallel_fors_counter_;
  obs::Counter* uncaught_counter_;
  obs::Gauge* queue_high_gauge_;
  obs::Gauge* queue_normal_gauge_;
};

// Fork/join scope over an executor: Run() submits tasks, Wait() blocks
// until all of them finished and rethrows the first exception any of them
// threw. Wait() from a worker of the same executor helps run queued work
// (own deque, steals, normal injection — never high injection) instead of
// blocking the worker. Destruction waits for stragglers but swallows
// their exceptions; call Wait() to observe them.
class TaskGroup {
 public:
  // nullptr selects Executor::Global().
  explicit TaskGroup(Executor* executor = nullptr);
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Run(std::function<void()> fn, Priority priority = Priority::kNormal);
  void Wait();

  Executor* executor() const { return executor_; }

 private:
  void WaitNoThrow();

  Executor* executor_;
  std::atomic<size_t> pending_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::exception_ptr error_;  // guarded by mu_
};

}  // namespace hinpriv::exec

#endif  // HINPRIV_EXEC_EXECUTOR_H_
