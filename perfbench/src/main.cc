// perfbench: the end-to-end benchmark binary.
//
//   perfbench --workload serve_d1|audit_d2|grow_d1 --seed N --seconds S
//             --trace 0|1 [--users N] [--targets N] [--data_dir DIR]
//             [--corrupt_reference 1]
//
// Generates the inputs from the seed, writes them to files under
// --data_dir, drives the workload through the program's public surfaces,
// checks every answer and prints one JSON line last:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exits non-zero on a broken run (nothing printed), a metric the workload
// did not set, or any wrong answer.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>

#include "bench.h"
#include "host.h"
#include "metrics.h"

namespace {

using namespace perfbench;

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_d1|audit_d2|grow_d1 --seed N --seconds S --trace 0|1 "
               "[--users N] [--targets N] [--data_dir DIR] "
               "[--corrupt_reference 0|1]\n",
               message);
  std::exit(2);
}

uint64_t ParseUnsigned(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0') Usage(("bad value for " + flag).c_str());
  return parsed;
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage(("missing value for " + flag).c_str());
    }
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = ParseUnsigned(flag, value);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(ParseUnsigned(flag, value));
    } else if (flag == "--trace") {
      options.trace = ParseUnsigned(flag, value) != 0;
    } else if (flag == "--users") {
      options.users = ParseUnsigned(flag, value);
    } else if (flag == "--targets") {
      options.targets = ParseUnsigned(flag, value);
    } else if (flag == "--data_dir") {
      options.data_dir = value;
    } else if (flag == "--corrupt_reference") {
      options.corrupt_reference = ParseUnsigned(flag, value) != 0;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds < 1 || options.targets < 2 ||
      options.users < options.targets) {
    Usage("need seconds >= 1, 2 <= targets <= users");
  }
  return options;
}

// Prints the result line. False, with nothing printed, when the workload
// left a catalogue metric unset (layers off its path are set to 0 by
// name), set one outside the catalogue, or set one that is not finite.
bool PrintResult(const Outcome& outcome,
                 std::span<const MetricDef> catalogue) {
  bool complete = true;
  for (const MetricDef& def : catalogue) {
    if (outcome.values.count(def.name) == 0) {
      std::fprintf(stderr, "perfbench: metric %s not set\n", def.name);
      complete = false;
    }
  }
  for (const auto& [name, value] : outcome.values) {
    bool known = false;
    for (const MetricDef& def : catalogue) known |= name == def.name;
    if (!known || !std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: bad metric %s = %g\n", name.c_str(),
                   value);
      complete = false;
    }
  }
  if (!complete) return false;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              outcome.mismatches == 0 ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  bool first = true;
  for (const MetricDef& def : catalogue) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", def.name, outcome.values.at(def.name),
                def.unit);
    first = false;
  }
  std::printf("}}\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  hinpriv::util::Status (*run)(const Options&, Outcome*) = nullptr;
  if (options.workload == "serve_d1") run = RunServe;
  if (options.workload == "audit_d2") run = RunAudit;
  if (options.workload == "grow_d1") run = RunGrow;
  if (run == nullptr) Usage("unknown --workload");

  // Host-noise guard: benchmark, server and client threads together keep
  // at most nproc - 1 cores busy.
  const int nproc = OnlineCpus();
  const int cpus = PinProcessToCpus(std::max(1, nproc - 1));
  if (options.data_dir.empty()) {
    options.data_dir = ".bench_build/data/" + options.workload + "-" +
                       std::to_string(options.seed) + "-" +
                       std::to_string(getpid());
  }
  std::error_code error;
  std::filesystem::remove_all(options.data_dir, error);
  std::filesystem::create_directories(options.data_dir, error);
  if (error) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 options.data_dir.c_str(), error.message().c_str());
    return 1;
  }
  std::printf("context: {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"nproc\": %d, "
              "\"cpus_used\": %d, \"build_type\": \"%s\", \"users\": %zu, "
              "\"targets\": %zu, \"restarts\": %d}\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, nproc, cpus, PERFBENCH_BUILD_TYPE,
              options.users, options.targets, kRestarts);
  std::fflush(stdout);

  Outcome outcome;
  hinpriv::util::Status status;
  {
    // Keeps the pinned vCPUs from halting for the whole run (host.h).
    const IdleSpinners spinners;
    status = run(options, &outcome);
  }
  std::filesystem::remove_all(options.data_dir, error);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), status.ToString().c_str());
    return 1;
  }
  if (outcome.mismatches > 0) {
    std::fprintf(stderr, "perfbench: %llu wrong answers\n",
                 static_cast<unsigned long long>(outcome.mismatches));
  }
  const bool printed =
      options.trace ? PrintResult(outcome, kPerLayer)
                    : PrintResult(outcome, kEndToEnd);
  if (!printed) return 1;
  return outcome.mismatches == 0 ? 0 : 1;
}
