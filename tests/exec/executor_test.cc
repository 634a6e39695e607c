#include "exec/executor.h"

#include <sched.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/work_stealing_deque.h"
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

TEST(WorkStealingDequeTest, OwnerPopsLifo) {
  WorkStealingDeque deque(4);
  int values[3] = {1, 2, 3};
  deque.PushBottom(&values[0]);
  deque.PushBottom(&values[1]);
  deque.PushBottom(&values[2]);
  EXPECT_EQ(deque.ApproxSize(), 3u);
  EXPECT_EQ(deque.PopBottom(), &values[2]);
  EXPECT_EQ(deque.PopBottom(), &values[1]);
  EXPECT_EQ(deque.PopBottom(), &values[0]);
  EXPECT_EQ(deque.PopBottom(), nullptr);
}

TEST(WorkStealingDequeTest, ThiefStealsFifo) {
  WorkStealingDeque deque(4);
  int values[3] = {1, 2, 3};
  deque.PushBottom(&values[0]);
  deque.PushBottom(&values[1]);
  deque.PushBottom(&values[2]);
  EXPECT_EQ(deque.Steal(), &values[0]);
  EXPECT_EQ(deque.Steal(), &values[1]);
  // Owner takes the freshest remaining item.
  EXPECT_EQ(deque.PopBottom(), &values[2]);
  EXPECT_EQ(deque.Steal(), nullptr);
}

TEST(WorkStealingDequeTest, GrowsPastInitialCapacity) {
  WorkStealingDeque deque(2);
  std::vector<int> values(1000);
  for (int& v : values) deque.PushBottom(&v);
  EXPECT_EQ(deque.ApproxSize(), values.size());
  for (size_t i = values.size(); i-- > 0;) {
    EXPECT_EQ(deque.PopBottom(), &values[i]);
  }
}

// Conservation stress: every pushed item is taken exactly once, whether by
// the owner or a thief. The interesting interleavings are the last-element
// CAS race and steals racing a concurrent Grow.
TEST(WorkStealingDequeTest, ConcurrentStealConservesItems) {
  constexpr int kItems = 20000;
  constexpr int kThieves = 3;
  WorkStealingDeque deque(8);
  std::vector<std::atomic<int>> taken(kItems);
  for (auto& cell : taken) cell.store(0);
  std::vector<int> values(kItems);
  std::iota(values.begin(), values.end(), 0);

  std::atomic<bool> done{false};
  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (void* item = deque.Steal()) {
          taken[*static_cast<int*>(item)].fetch_add(1);
        }
      }
      // Final sweep so nothing is stranded if the owner finished first.
      while (void* item = deque.Steal()) {
        taken[*static_cast<int*>(item)].fetch_add(1);
      }
    });
  }

  // Owner: push in bursts, pop some back, so bottom moves both ways.
  for (int i = 0; i < kItems; ++i) {
    deque.PushBottom(&values[i]);
    if (i % 3 == 0) {
      if (void* item = deque.PopBottom()) {
        taken[*static_cast<int*>(item)].fetch_add(1);
      }
    }
  }
  while (void* item = deque.PopBottom()) {
    taken[*static_cast<int*>(item)].fetch_add(1);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& thief : thieves) thief.join();

  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(taken[i].load(), 1) << "item " << i;
  }
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
  Executor executor(2);
  EXPECT_EQ(Executor::Current(), nullptr);
  TaskGroup group(&executor);
  std::atomic<Executor*> seen{nullptr};
  group.Run([&] { seen.store(Executor::Current()); });
  group.Wait();
  EXPECT_EQ(seen.load(), &executor);
}

// With one worker pinned by a blocker, a high-priority submission must be
// scheduled ahead of every already-queued normal task.
TEST(ExecutorTest, HighPriorityRunsBeforeQueuedNormalWork) {
  Executor executor(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> blocker_running{false};

  std::vector<int> order;
  std::mutex order_mu;
  std::atomic<int> remaining{4};

  TaskGroup group(&executor);
  group.Run([&] {
    blocker_running.store(true);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  while (!blocker_running.load()) std::this_thread::yield();

  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(tag);
    remaining.fetch_sub(1);
  };
  group.Run([&] { record(1); }, Priority::kNormal);
  group.Run([&] { record(2); }, Priority::kNormal);
  group.Run([&] { record(3); }, Priority::kNormal);
  group.Run([&] { record(100); }, Priority::kHigh);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  group.Wait();

  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 100);
}

TEST(TaskGroupTest, WaitPropagatesFirstException) {
  Executor executor(2);
  TaskGroup group(&executor);
  group.Run([] { throw std::runtime_error("task boom"); });
  group.Run([] {});
  EXPECT_THROW(group.Wait(), std::runtime_error);
  // The error is consumed; a second Wait is clean.
  group.Wait();
}

TEST(TaskGroupTest, NestedForkJoinFromWorkerContext) {
  Executor executor(2);
  TaskGroup outer(&executor);
  std::atomic<int> inner_ran{0};
  outer.Run([&] {
    TaskGroup inner(&executor);
    for (int i = 0; i < 16; ++i) {
      inner.Run([&] { inner_ran.fetch_add(1); });
    }
    inner.Wait();
  });
  outer.Wait();
  EXPECT_EQ(inner_ran.load(), 16);
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
  Executor executor(2);
  TaskGroup group(&executor);
  std::atomic<uint64_t> sum{0};
  group.Run([&] {
    executor.ParallelFor(64, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) sum.fetch_add(i + 1);
    });
  });
  group.Wait();
  EXPECT_EQ(sum.load(), 64u * 65u / 2);
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
  Executor a(3);
  Executor b(2);
  std::atomic<uint64_t> total{0};
  TaskGroup group(&a);
  for (int round = 0; round < 8; ++round) {
    group.Run([&] {
      b.ParallelFor(512, [&](size_t begin, size_t end) {
        total.fetch_add(end - begin);
      });
    });
    group.Run([&] {
      a.ParallelFor(512, [&](size_t begin, size_t end) {
        total.fetch_add(end - begin);
      });
    });
  }
  group.Wait();
  EXPECT_EQ(total.load(), 16u * 512u);
}

}  // namespace
}  // namespace hinpriv::exec
