#include "exec/executor.h"

#include <sched.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <latch>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/cancellation.h"

namespace hinpriv::exec {
namespace {

TEST(ResolveThreadsTest, ZeroCountsTheCpusTheCallerMayRunOn) {
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(ResolveThreads(0), static_cast<size_t>(CPU_COUNT(&original)));

  // Narrow the calling thread to one of its CPUs: 0 must resolve to 1, as
  // it would under `taskset -c N` on a many-core machine.
  int first = 0;
  while (!CPU_ISSET(first, &original)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    GTEST_SKIP() << "cannot narrow this thread's CPU affinity";
  }
  const size_t narrowed = ResolveThreads(0);
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(narrowed, 1u);
}

TEST(ResolveThreadsTest, NonZeroPassesThrough) {
  EXPECT_EQ(ResolveThreads(1), 1u);
  EXPECT_EQ(ResolveThreads(7), 7u);
  EXPECT_EQ(ResolveThreads(64), 64u);
}

TEST(ExecutorTest, SubmitRunsTasks) {
  // Declared before the executor, so they outlive it: the wait below can
  // return while the last task still holds `mu` or notifies `cv`, and the
  // executor's destructor joins that task before they are destroyed.
  std::atomic<int> ran{0};
  std::mutex mu;
  std::condition_variable cv;
  Executor executor(3);
  EXPECT_EQ(executor.num_workers(), 3u);
  constexpr int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    executor.Submit([&] {
      if (ran.fetch_add(1) + 1 == kTasks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return ran.load() == kTasks; }));
}

TEST(ExecutorTest, CurrentIdentifiesWorkerThreads) {
  // Declared before the executor, which joins the task before it dies.
  std::promise<Executor*> seen;
  Executor executor(2);
  EXPECT_EQ(Executor::Current(), nullptr);
  executor.Submit([&] { seen.set_value(Executor::Current()); });
  EXPECT_EQ(seen.get_future().get(), &executor);
}

// With one worker pinned by a blocker, a high-priority submission must be
// scheduled ahead of every already-queued normal task.
TEST(ExecutorTest, HighPriorityRunsBeforeQueuedNormalWork) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> blocker_running{false};

  std::vector<int> order;
  std::mutex order_mu;
  std::latch done(4);
  Executor executor(1);

  executor.Submit([&] {
    blocker_running.store(true);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  while (!blocker_running.load()) std::this_thread::yield();

  auto record = [&](int tag) {
    {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
    }
    done.count_down();
  };
  executor.Submit([&] { record(1); }, Priority::kNormal);
  executor.Submit([&] { record(2); }, Priority::kNormal);
  executor.Submit([&] { record(3); }, Priority::kNormal);
  executor.Submit([&] { record(100); }, Priority::kHigh);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  done.wait();

  std::lock_guard<std::mutex> lock(order_mu);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 100);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  Executor executor(4);
  for (size_t n : {0u, 1u, 3u, 7u, 1000u}) {
    for (size_t grain : {0u, 1u, 13u, 4096u}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      ParallelForOptions options;
      options.grain = grain;
      const ParallelForResult result = executor.ParallelFor(
          n,
          [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
          },
          options);
      EXPECT_EQ(result.completed, n);
      EXPECT_FALSE(result.stopped);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain
                                     << " i=" << i;
      }
    }
  }
}

TEST(ParallelForTest, SingleWorkerExecutorRunsInline) {
  Executor executor(1);
  std::atomic<uint64_t> sum{0};
  const ParallelForResult result = executor.ParallelFor(
      100, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) sum.fetch_add(i);
      });
  EXPECT_EQ(result.completed, 100u);
  EXPECT_EQ(sum.load(), 99u * 100u / 2);
}

TEST(ParallelForTest, NestedInsideWorkerDoesNotDeadlock) {
  std::atomic<uint64_t> sum{0};
  std::promise<void> done;
  Executor executor(2);
  executor.Submit([&] {
    executor.ParallelFor(64, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) sum.fetch_add(i + 1);
    });
    done.set_value();
  });
  done.get_future().wait();
  EXPECT_EQ(sum.load(), 64u * 65u / 2);
}

// Called from inside a worker of a 2-worker pool, ParallelFor forks one
// claim loop into the kNormal FIFO, and only the sibling can run it. Each
// grain waits until the other has started, so the caller cannot take
// both: the fork must claim one on the other thread.
TEST(ParallelForTest, SiblingWorkerRunsTheForkFromInsideAWorker) {
  obs::Counter* steals =
      obs::MetricsRegistry::Global().GetCounter("exec/steals");
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  std::thread::id ran_on[2];
  bool saw_other[2] = {false, false};
  std::promise<void> done;
  Executor executor(2);
  const uint64_t steals_before = steals->Value();

  executor.Submit([&] {
    ParallelForOptions options;
    options.grain = 1;
    executor.ParallelFor(
        2,
        [&](size_t begin, size_t) {
          std::unique_lock<std::mutex> lock(mu);
          ran_on[begin] = std::this_thread::get_id();
          ++started;
          cv.notify_all();
          saw_other[begin] = cv.wait_for(lock, std::chrono::seconds(10),
                                         [&] { return started == 2; });
        },
        options);
    done.set_value();
  });
  done.get_future().wait();

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_TRUE(saw_other[0]);
  EXPECT_TRUE(saw_other[1]);
  EXPECT_NE(ran_on[0], ran_on[1]);
  EXPECT_EQ(steals->Value() - steals_before, 1u);
}

// From inside the only worker there is no sibling to fork to: the caller
// runs every grain inline and nothing counts as a steal.
TEST(ParallelForTest, OnlyWorkerForksNothing) {
  obs::Counter* steals =
      obs::MetricsRegistry::Global().GetCounter("exec/steals");
  std::atomic<uint64_t> sum{0};
  std::promise<void> done;
  Executor executor(1);
  const uint64_t steals_before = steals->Value();

  executor.Submit([&] {
    ParallelForOptions options;
    options.grain = 1;
    executor.ParallelFor(
        16,
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) sum.fetch_add(i + 1);
        },
        options);
    done.set_value();
  });
  done.get_future().wait();

  EXPECT_EQ(sum.load(), 16u * 17u / 2);
  EXPECT_EQ(steals->Value(), steals_before);
}

TEST(ParallelForTest, BodyExceptionPropagates) {
  Executor executor(4);
  ParallelForOptions options;
  options.grain = 10;
  EXPECT_THROW(executor.ParallelFor(1000,
                                    [&](size_t begin, size_t) {
                                      if (begin >= 100) {
                                        throw std::runtime_error("grain boom");
                                      }
                                    },
                                    options),
               std::runtime_error);
}

// Cancellation contract: once the token fires, no further grain is
// claimed; already-claimed grains finish; the executed set is exactly the
// prefix [0, completed).
TEST(ParallelForTest, CancelStopsClaimingAndReturnsExactPrefix) {
  Executor executor(4);
  constexpr size_t kN = 100000;
  util::CancelToken cancel;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  std::atomic<size_t> executed{0};

  ParallelForOptions options;
  options.grain = 16;
  options.cancel = &cancel;
  const ParallelForResult result = executor.ParallelFor(
      kN,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1);
          if (executed.fetch_add(1) + 1 == 1000) cancel.Cancel();
        }
      },
      options);

  EXPECT_TRUE(result.stopped);
  EXPECT_LT(result.completed, kN);
  EXPECT_GE(executed.load(), 1000u);
  // Exact prefix: everything below `completed` ran exactly once, nothing
  // at or above it ran at all.
  for (size_t i = 0; i < kN; ++i) {
    const int expected = i < result.completed ? 1 : 0;
    ASSERT_EQ(hits[i].load(), expected) << "i=" << i;
  }
}

TEST(ParallelForTest, PreCancelledTokenRunsNothing) {
  Executor executor(2);
  util::CancelToken cancel;
  cancel.Cancel();
  std::atomic<int> ran{0};
  ParallelForOptions options;
  options.cancel = &cancel;
  const ParallelForResult result = executor.ParallelFor(
      1000, [&](size_t, size_t) { ran.fetch_add(1); }, options);
  EXPECT_EQ(result.completed, 0u);
  EXPECT_TRUE(result.stopped);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelForTest, GlobalExecutorIsUsable) {
  std::atomic<uint64_t> sum{0};
  Executor::Global().ParallelFor(256, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) sum.fetch_add(1);
  });
  EXPECT_EQ(sum.load(), 256u);
}

TEST(DefaultGrainTest, ResolvesTargetChunksWithClamp) {
  // 8 chunks per worker: 64k iterations over 8 workers → grain 1024.
  EXPECT_EQ(DefaultGrain(65536, 8), 1024u);
  // Small ranges never resolve below one iteration.
  EXPECT_EQ(DefaultGrain(10, 8), 1u);
  EXPECT_EQ(DefaultGrain(0, 8), 1u);
  // Huge ranges clamp at 8192 so chunks stay claimable.
  EXPECT_EQ(DefaultGrain(100'000'000, 1), 8192u);
  // A zero worker count counts as one worker.
  EXPECT_EQ(DefaultGrain(100, 0), 12u);
}

// Repeated mixed load: ParallelFors racing fire-and-forget tasks across
// two executors. Mostly a TSan target.
TEST(ExecutorStressTest, MixedLoadCompletes) {
  std::atomic<uint64_t> total{0};
  // Declared before the executors, which join the tasks before it dies.
  std::latch done(16);
  Executor a(3);
  Executor b(2);
  for (int round = 0; round < 8; ++round) {
    a.Submit([&] {
      b.ParallelFor(512, [&](size_t begin, size_t end) {
        total.fetch_add(end - begin);
      });
      done.count_down();
    });
    a.Submit([&] {
      a.ParallelFor(512, [&](size_t begin, size_t end) {
        total.fetch_add(end - begin);
      });
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(total.load(), 16u * 512u);
}

}  // namespace
}  // namespace hinpriv::exec
