#include "exec/executor.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hinpriv::exec {

namespace {

// The executor owning the calling thread; set for the lifetime of
// WorkerMain.
thread_local Executor* tls_executor = nullptr;

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
    workers_.emplace_back([this, i] { WorkerMain(i); });
  }
}

Executor::~Executor() {
  stop_.store(true, std::memory_order_seq_cst);
  NotifyWork();
  // Workers exit only once both FIFOs are empty; anything a task queued
  // after that (fire-and-forget work submitted during shutdown) is
  // dropped with the FIFOs.
  for (std::thread& worker : workers_) worker.join();
}

Executor& Executor::Global() {
  static Executor executor(0);
  return executor;
}

Executor* Executor::Current() { return tls_executor; }

void Executor::Submit(std::function<void()> fn, Priority priority) {
  Task task{std::move(fn), obs::CurrentRequestId()};
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    (priority == Priority::kHigh ? queue_high_ : queue_normal_)
        .push_back(std::move(task));
    PublishQueueSizes();
  }
  NotifyWork();
}

void Executor::PublishQueueSizes() {
  queue_high_gauge_->Set(static_cast<double>(queue_high_.size()));
  queue_normal_gauge_->Set(static_cast<double>(queue_normal_.size()));
  num_queued_.store(queue_high_.size() + queue_normal_.size(),
                    std::memory_order_relaxed);
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
  tls_executor = this;
  obs::SetCurrentThreadName("exec/worker-" + std::to_string(index));
  while (true) {
    // Snapshot the epoch before scanning: any enqueue we race with bumps
    // it, which turns the sleep below into an immediate rescan.
    const uint64_t epoch = wake_epoch_.load(std::memory_order_seq_cst);
    if (RunOneTask()) continue;
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
}

bool Executor::RunOneTask() {
  if (num_queued_.load(std::memory_order_relaxed) == 0) return false;
  Task task;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    std::deque<Task>& queue = queue_high_.empty() ? queue_normal_ : queue_high_;
    if (queue.empty()) return false;
    task = std::move(queue.front());
    queue.pop_front();
    PublishQueueSizes();
  }
  obs::ScopedRequestId rid_scope(task.rid);
  HINPRIV_SPAN("exec/task");
  tasks_counter_->Increment();
  try {
    task.fn();
  } catch (...) {
    // Fire-and-forget tasks have no joiner to receive this; ParallelFor
    // catches before it gets here.
    uncaught_counter_->Increment();
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(
          stderr,
          "exec: uncaught exception in fire-and-forget task (dropped)\n");
    }
  }
  return true;
}

void Executor::ClaimLoop(const std::shared_ptr<PFState>& state,
                         bool forked) {
  state->active.fetch_add(1, std::memory_order_seq_cst);
  bool claimed = false;
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
    claimed = true;
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
  // Counted before `active` drops, so the caller's join observes it. The
  // caller never runs its own forks while it waits, so a fork that claimed
  // a grain ran on a sibling worker.
  if (forked && claimed) steals_counter_->Increment();
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
  state->grain =
      options.grain != 0 ? options.grain : DefaultGrain(n, num_workers());

  const size_t chunks = (n + state->grain - 1) / state->grain;
  // The caller always participates inline (so a 1-worker executor, or a
  // nested call from worker context, can never deadlock); fork at most one
  // claim loop per remaining worker, and never more than the chunk count
  // warrants.
  const size_t avail = num_workers() - (Current() == this ? 1 : 0);
  const size_t forks = std::min(avail, chunks - 1);
  for (size_t i = 0; i < forks; ++i) {
    Submit([this, state] { ClaimLoop(state, /*forked=*/true); });
  }
  ClaimLoop(state, /*forked=*/false);

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

}  // namespace hinpriv::exec
