#include "exec/executor.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hinpriv::exec {

namespace {

// Worker identity for the calling thread; set for the lifetime of
// WorkerMain. tls_worker is the Executor::Worker*, stored untyped because
// Worker is a private nested type.
thread_local Executor* tls_executor = nullptr;
thread_local void* tls_worker = nullptr;

// splitmix64 finaliser; decorrelates sequential steal-seed draws.
uint64_t MixSeed(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

size_t ResolveThreads(size_t requested) {
  if (requested != 0) return requested;
  // The CPUs the calling thread may run on, so a taskset or cpuset limit
  // sizes the pool to what the process can use; hardware_concurrency()
  // counts every CPU of the machine.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    const int count = CPU_COUNT(&allowed);
    if (count > 0) return static_cast<size_t>(count);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

// Shared scratch of one ParallelFor invocation. `body` stays a borrowed
// pointer into the caller's frame: it is only dereferenced after a
// successful grain claim, and ParallelFor closes the claim range before
// returning, so no straggler task can touch it once the frame is gone.
struct Executor::PFState {
  const std::function<void(size_t, size_t)>* body = nullptr;
  const util::CancelToken* cancel = nullptr;
  size_t n = 0;
  size_t grain = 1;
  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};
  std::atomic<int> active{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // guarded by mu
};

Executor::Executor(size_t num_threads) {
  const size_t n = ResolveThreads(num_threads);
  auto& registry = obs::MetricsRegistry::Global();
  tasks_counter_ = registry.GetCounter("exec/tasks");
  steals_counter_ = registry.GetCounter("exec/steals");
  parallel_fors_counter_ = registry.GetCounter("exec/parallel_fors");
  uncaught_counter_ = registry.GetCounter("exec/uncaught_exceptions");
  queue_high_gauge_ = registry.GetGauge("exec/queue_high");
  queue_normal_gauge_ = registry.GetGauge("exec/queue_normal");
  registry.GetGauge("exec/workers")->Set(static_cast<double>(n));
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (size_t i = 0; i < n; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerMain(i); });
  }
}

Executor::~Executor() {
  stop_.store(true, std::memory_order_seq_cst);
  NotifyWork();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // Single-threaded from here on. Anything still queued was fire-and-forget
  // work submitted during shutdown; drop it.
  for (auto& worker : workers_) {
    while (void* item = worker->deque.PopBottom()) {
      delete static_cast<Task*>(item);
    }
  }
  for (Task* task : inject_high_) delete task;
  for (Task* task : inject_normal_) delete task;
}

Executor& Executor::Global() {
  static Executor executor(0);
  return executor;
}

Executor* Executor::Current() { return tls_executor; }

void Executor::Submit(std::function<void()> fn, Priority priority) {
  Enqueue(new Task{std::move(fn), obs::CurrentRequestId()}, priority);
}

void Executor::Enqueue(Task* task, Priority priority) {
  if (priority == Priority::kNormal && Current() == this) {
    // Worker-local submission: LIFO on the own deque, stealable by idle
    // siblings from the other end.
    static_cast<Worker*>(tls_worker)->deque.PushBottom(task);
  } else {
    std::lock_guard<std::mutex> lock(inject_mu_);
    if (priority == Priority::kHigh) {
      inject_high_.push_back(task);
      inject_high_size_.store(inject_high_.size(), std::memory_order_relaxed);
      queue_high_gauge_->Set(static_cast<double>(inject_high_.size()));
    } else {
      inject_normal_.push_back(task);
      inject_normal_size_.store(inject_normal_.size(),
                                std::memory_order_relaxed);
      queue_normal_gauge_->Set(static_cast<double>(inject_normal_.size()));
    }
  }
  NotifyWork();
}

void Executor::NotifyWork() {
  // Producer half of the sleep handshake: bump the epoch first, then read
  // the sleeper count. A sleeper registers itself first, then re-reads the
  // epoch; with seq_cst on both sides they cannot both miss each other.
  wake_epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (num_sleepers_.load(std::memory_order_seq_cst) == 0) return;
  std::lock_guard<std::mutex> lock(idle_mu_);
  idle_cv_.notify_all();
}

void Executor::WorkerMain(size_t index) {
  Worker* self = workers_[index].get();
  tls_executor = this;
  tls_worker = self;
  obs::SetCurrentThreadName("exec/worker-" + std::to_string(index));
  while (true) {
    // Snapshot the epoch before scanning: any enqueue we race with bumps
    // it, which turns the sleep below into an immediate rescan.
    const uint64_t epoch = wake_epoch_.load(std::memory_order_seq_cst);
    if (RunOneTask(self, /*include_high=*/true)) continue;
    if (stop_.load(std::memory_order_seq_cst)) break;
    std::unique_lock<std::mutex> lock(idle_mu_);
    num_sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (wake_epoch_.load(std::memory_order_seq_cst) == epoch &&
        !stop_.load(std::memory_order_seq_cst)) {
      idle_cv_.wait(lock, [&] {
        return wake_epoch_.load(std::memory_order_seq_cst) != epoch ||
               stop_.load(std::memory_order_seq_cst);
      });
    }
    num_sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
  tls_executor = nullptr;
  tls_worker = nullptr;
}

bool Executor::RunOneTask(Worker* self, bool include_high) {
  Task* task = nullptr;
  if (include_high && inject_high_size_.load(std::memory_order_relaxed) > 0) {
    task = TryPopInjected(Priority::kHigh);
  }
  if (task == nullptr) {
    task = static_cast<Task*>(self->deque.PopBottom());
  }
  if (task == nullptr &&
      inject_normal_size_.load(std::memory_order_relaxed) > 0) {
    task = TryPopInjected(Priority::kNormal);
  }
  if (task == nullptr) task = TrySteal(self);
  if (task == nullptr) return false;
  RunTask(task);
  return true;
}

Executor::Task* Executor::TryPopInjected(Priority priority) {
  std::lock_guard<std::mutex> lock(inject_mu_);
  std::deque<Task*>& queue =
      priority == Priority::kHigh ? inject_high_ : inject_normal_;
  if (queue.empty()) return nullptr;
  Task* task = queue.front();
  queue.pop_front();
  if (priority == Priority::kHigh) {
    inject_high_size_.store(inject_high_.size(), std::memory_order_relaxed);
    queue_high_gauge_->Set(static_cast<double>(inject_high_.size()));
  } else {
    inject_normal_size_.store(inject_normal_.size(),
                              std::memory_order_relaxed);
    queue_normal_gauge_->Set(static_cast<double>(inject_normal_.size()));
  }
  return task;
}

Executor::Task* Executor::TrySteal(Worker* self) {
  const size_t n = workers_.size();
  if (n <= 1) return nullptr;
  const uint64_t seed = MixSeed(
      steal_seed_.fetch_add(0x9e3779b97f4a7c15ull, std::memory_order_relaxed));
  const size_t start = static_cast<size_t>(seed % n);
  // Two sweeps: the first may lose benign CAS races against siblings
  // stealing from the same victim.
  for (size_t round = 0; round < 2; ++round) {
    for (size_t i = 0; i < n; ++i) {
      Worker* victim = workers_[(start + i) % n].get();
      if (victim == self) continue;
      if (void* item = victim->deque.Steal()) {
        steals_counter_->Increment();
        return static_cast<Task*>(item);
      }
    }
  }
  return nullptr;
}

void Executor::RunTask(Task* task) {
  obs::ScopedRequestId rid_scope(task->rid);
  HINPRIV_SPAN("exec/task");
  tasks_counter_->Increment();
  try {
    task->fn();
  } catch (...) {
    // Fire-and-forget tasks have no joiner to receive this; TaskGroup and
    // ParallelFor catch before it gets here.
    uncaught_counter_->Increment();
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(
          stderr,
          "exec: uncaught exception in fire-and-forget task (dropped)\n");
    }
  }
  delete task;
}

void Executor::ClaimLoop(const std::shared_ptr<PFState>& state) {
  state->active.fetch_add(1, std::memory_order_seq_cst);
  while (true) {
    if (state->stop.load(std::memory_order_seq_cst)) break;
    // Peek before touching `cancel`: a straggler fork that starts after
    // ParallelFor returned sees the close-CASed `next >= n` here and exits
    // without dereferencing the caller-owned token (or `body`), both of
    // which may be dead by then. Stragglers that registered in `active`
    // before ParallelFor's final wait keep the caller (and the token)
    // alive, so a peek that reads `next < n` guarantees `cancel` is live.
    if (state->next.load(std::memory_order_seq_cst) >= state->n) break;
    if (state->cancel != nullptr && state->cancel->ShouldStop()) {
      state->stop.store(true, std::memory_order_seq_cst);
      break;
    }
    const size_t begin =
        state->next.fetch_add(state->grain, std::memory_order_seq_cst);
    if (begin >= state->n) break;
    const size_t end = std::min(state->n, begin + state->grain);
    try {
      (*state->body)(begin, end);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(state->mu);
        if (!state->error) state->error = std::current_exception();
      }
      state->stop.store(true, std::memory_order_seq_cst);
      break;
    }
  }
  if (state->active.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    std::lock_guard<std::mutex> lock(state->mu);
    state->cv.notify_all();
  }
}

ParallelForResult Executor::ParallelFor(
    size_t n, const std::function<void(size_t, size_t)>& body,
    const ParallelForOptions& options) {
  ParallelForResult result;
  if (n == 0) return result;
  parallel_fors_counter_->Increment();

  auto state = std::make_shared<PFState>();
  state->body = &body;
  state->cancel = options.cancel;
  state->n = n;
  state->grain = options.grain;
  if (state->grain == 0) {
    state->grain = options.grain_policy.Resolve(n, num_workers());
  }

  const size_t chunks = (n + state->grain - 1) / state->grain;
  // The caller always participates inline (so a 1-worker executor, or a
  // nested call from worker context, can never deadlock); fork at most one
  // claim loop per remaining worker, and never more than the chunk count
  // warrants.
  const size_t avail = num_workers() - (Current() == this ? 1 : 0);
  const size_t forks = std::min(avail, chunks - 1);
  for (size_t i = 0; i < forks; ++i) {
    Enqueue(new Task{[this, state] { ClaimLoop(state); },
                     obs::CurrentRequestId()},
            options.priority);
  }
  ClaimLoop(state);

  // Close the claim range: bump `next` to at least n so any straggler fork
  // that starts after this point claims nothing. `claimed` captures the
  // pre-close claim frontier, which is exactly the executed prefix when
  // the loop was cancelled.
  size_t claimed = state->next.load(std::memory_order_seq_cst);
  while (claimed < n && !state->next.compare_exchange_weak(
                            claimed, n, std::memory_order_seq_cst)) {
  }
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      return state->active.load(std::memory_order_seq_cst) == 0;
    });
  }

  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    error = state->error;
  }
  if (error) std::rethrow_exception(error);
  result.completed = std::min(n, claimed);
  result.stopped =
      state->stop.load(std::memory_order_seq_cst) && result.completed < n;
  return result;
}

TaskGroup::TaskGroup(Executor* executor)
    : executor_(executor != nullptr ? executor : &Executor::Global()) {}

TaskGroup::~TaskGroup() { WaitNoThrow(); }

void TaskGroup::Run(std::function<void()> fn, Priority priority) {
  pending_.fetch_add(1, std::memory_order_seq_cst);
  executor_->Submit(
      [this, fn = std::move(fn)] {
        try {
          fn();
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu_);
          if (!error_) error_ = std::current_exception();
        }
        if (pending_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
          std::lock_guard<std::mutex> lock(mu_);
          cv_.notify_all();
        }
      },
      priority);
}

void TaskGroup::WaitNoThrow() {
  if (Executor::Current() == executor_) {
    // Called from a worker of the same executor: helping keeps the worker
    // productive and guarantees progress when the group's tasks sit in
    // this worker's own deque. High-priority work is deliberately left to
    // the main loop so a request task can't recurse into another request.
    auto* self = static_cast<Executor::Worker*>(tls_worker);
    while (pending_.load(std::memory_order_seq_cst) != 0) {
      if (executor_->RunOneTask(self, /*include_high=*/false)) continue;
      std::unique_lock<std::mutex> lock(mu_);
      // Timed wait: the remaining tasks may be running on other workers,
      // and their completion notify could race our scan-then-wait.
      cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return pending_.load(std::memory_order_seq_cst) == 0;
      });
    }
  } else {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock,
             [&] { return pending_.load(std::memory_order_seq_cst) == 0; });
  }
}

void TaskGroup::Wait() {
  WaitNoThrow();
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mu_);
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace hinpriv::exec
