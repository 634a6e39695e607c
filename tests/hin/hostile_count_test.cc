// Section counts in the text formats come from the file. A hostile count
// must fail as Corruption at its first missing row, having reserved no
// more than a bounded number of rows. This binary replaces the global
// allocation functions to record the largest single request made while a
// load runs.
#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "hin/graph_delta.h"
#include "hin/io.h"
#include "util/status.h"

namespace {

std::atomic<bool> g_tracking{false};
std::atomic<size_t> g_largest{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_tracking.load(std::memory_order_relaxed)) {
    size_t largest = g_largest.load(std::memory_order_relaxed);
    while (largest < size &&
           !g_largest.compare_exchange_weak(largest, size,
                                            std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Not inlined, so the compiler never pairs the free() with a new-expression
// (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace hinpriv::hin {
namespace {

// No single allocation of a load over a few hundred bytes of text may
// exceed this; the reader's buffer and a capped reservation stay under it.
constexpr size_t kLargeAllocation = size_t{4} << 20;

struct Outcome {
  util::Status status;
  size_t largest_allocation = 0;
};

template <typename Load>
Outcome Track(const std::string& text, Load load) {
  std::istringstream in(text);
  g_largest.store(0);
  g_tracking.store(true);
  util::Status status = load(in);
  g_tracking.store(false);
  return Outcome{status, g_largest.load()};
}

Outcome LoadGraphText(const std::string& text) {
  return Track(text,
               [](std::istream& in) { return LoadGraph(in).status(); });
}

Outcome LoadDeltaText(const std::string& text) {
  return Track(text,
               [](std::istream& in) { return LoadDeltaStream(in).status(); });
}

TEST(HostileCountTest, GraphEdgeSectionCountIsCorruption) {
  const Outcome outcome = LoadGraphText(
      "hinpriv-graph 1\n"
      "entity_types 1\nUser 0\n"
      "link_types 1\nfollow 0 0 0 0 0\n"
      "vertices 2\n0\n0\n"
      "edges 0 18446744073709551615\n"
      "0 1 1\n"
      "end\n");
  EXPECT_EQ(outcome.status.code(), util::Status::Code::kCorruption)
      << outcome.status.ToString();
  EXPECT_GT(outcome.largest_allocation, 0u);
  EXPECT_LT(outcome.largest_allocation, kLargeAllocation);
}

TEST(HostileCountTest, DeltaSectionCountsAreCorruption) {
  const std::string header = "hinpriv-delta 1\nbatch 2\n";
  const std::string huge = " 18446744073709551615\n";
  for (const std::string& text :
       {header + "new_vertices" + huge,
        header + "new_vertices 0\nattr_bumps" + huge + "0 0 1\n",
        header + "new_vertices 0\nattr_bumps 0\nedge_adds" + huge +
            "0 0 1 1\nend\ndone\n"}) {
    const Outcome outcome = LoadDeltaText(text);
    EXPECT_EQ(outcome.status.code(), util::Status::Code::kCorruption)
        << text << outcome.status.ToString();
    EXPECT_GT(outcome.largest_allocation, 0u) << text;
    EXPECT_LT(outcome.largest_allocation, kLargeAllocation) << text;
  }
}

}  // namespace
}  // namespace hinpriv::hin
