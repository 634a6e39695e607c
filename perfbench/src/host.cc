#include "host.h"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

int OnlineCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

namespace {

// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

// Starts one thread per allowed CPU, pinned to it, running `body`.
std::vector<std::thread> OnEachCpu(const std::function<void()>& body) {
  std::vector<std::thread> threads;
  for (int cpu : AllowedCpus()) {
    threads.emplace_back([cpu, body] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      body();
    });
  }
  return threads;
}

}  // namespace

int PinProcessToCpus(int count) {
  const std::vector<int> allowed = AllowedCpus();
  if (count <= 0 || static_cast<size_t>(count) >= allowed.size()) {
    return static_cast<int>(allowed.size());
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (size_t i = allowed.size() - static_cast<size_t>(count);
       i < allowed.size(); ++i) {
    CPU_SET(allowed[i], &pinned);
  }
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) {
    return static_cast<int>(allowed.size());
  }
  return count;
}

void WarmAllCores(double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::duration<double>(seconds));
  std::atomic<uint64_t> sink{0};
  std::vector<std::thread> spinners = OnEachCpu([until, &sink] {
    uint64_t x = 0x9e3779b97f4a7c15ull;
    while (std::chrono::steady_clock::now() < until) {
      for (int i = 0; i < 4096; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
    }
    sink.fetch_add(x, std::memory_order_relaxed);
  });
  for (std::thread& t : spinners) t.join();
}

IdleSpinners::IdleSpinners() {
  threads_ = OnEachCpu([this] {
    const sched_param param{};
    pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
    while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
  });
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) {
    std::fprintf(stderr,
                 "perfbench: cannot reset VmHWM; peak_rss_mb includes "
                 "input generation\n");
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    unsigned long long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %llu kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
