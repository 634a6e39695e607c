// Host-noise guards and process facts. The measured host is a small VM
// whose vCPUs slow down after idling and whose last core is shared with
// the rest of the machine; see README.md "Noise facts".
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

// Online CPUs of the machine (what `nproc` prints before any pinning).
int OnlineCpus();

// Restricts the whole process to the last `count` CPUs of its affinity
// mask, so benchmark, server and client threads together can never keep
// more than `count` cores busy. Call before any thread starts: threads
// inherit the mask. Returns the CPUs actually allowed afterwards.
int PinProcessToCpus(int count);

// Spins one thread per allowed CPU for `seconds` of fixed integer work.
// Called right before every timed phase: a vCPU that idled for seconds
// runs the next ~1 s of work several times slower.
void WarmAllCores(double seconds);

// While alive, one SCHED_IDLE thread per allowed CPU spins whenever that
// CPU has nothing else to run, so the process's vCPUs never halt: waking a
// thread on a halted vCPU waits for the host to schedule it again, and
// that wait grows with the host's load. Any runnable benchmark or program
// thread preempts a spinner at once. README.md "Noise facts" has the
// measurements.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Returns freed heap to the kernel and resets VmHWM to the current RSS
// (writes 5 to /proc/self/clear_refs); warns when the kernel refuses.
void ResetPeakRss();

// VmHWM of this process in MiB, or 0 when /proc is unreadable.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
