// Shared by the signature and privacy-risk differential tests: the serial
// signature ladder the parallel one must reproduce bit for bit, the three
// kinds of graph it must reproduce it on, and a way to call from inside a
// pool's worker.
#ifndef HINPRIV_TESTS_CORE_SERIAL_SIGNATURES_H_
#define HINPRIV_TESTS_CORE_SERIAL_SIGNATURES_H_

#include <algorithm>
#include <cstdint>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/matchers.h"
#include "core/signature.h"
#include "exec/executor.h"
#include "hin/graph.h"
#include "hin/graph_builder.h"
#include "hin/io.h"
#include "hin/snapshot.h"
#include "synth/growth.h"
#include "synth/tqq_generator.h"
#include "util/hashing.h"
#include "util/random.h"
#include "temp_path.h"

namespace hinpriv::core::testing_ladder {

// A copy of core::ComputeSignatures as it was when every level ran on one
// thread, hash for hash. It is the reference: the parallel ladder must
// return exactly these values.
inline uint64_t SerialEdgeElementHash(hin::LinkTypeId lt, bool incoming,
                                      hin::Strength strength,
                                      uint64_t neighbor_sig) {
  uint64_t h = util::HashCombine(0x9d39247e33776d41ULL, lt);
  h = util::HashCombine(h, incoming ? 1 : 0);
  h = util::HashCombine(h, strength);
  h = util::HashCombine(h, neighbor_sig);
  return util::Mix64(h);
}

inline std::vector<std::vector<uint64_t>> SerialSignatures(
    const hin::Graph& graph, const SignatureOptions& options,
    int max_distance) {
  const size_t n = graph.num_vertices();
  std::vector<std::vector<uint64_t>> levels;
  std::vector<uint64_t> sig0(n);
  for (hin::VertexId v = 0; v < n; ++v) {
    uint64_t h = 0x2545f4914f6cdd1dULL;
    for (hin::AttributeId a : options.attributes) {
      h = util::HashCombine(h, static_cast<uint64_t>(static_cast<int64_t>(
                                   graph.attribute(v, a))));
    }
    sig0[v] = util::Mix64(h);
  }
  levels.push_back(std::move(sig0));
  std::vector<uint64_t> elements;
  for (int level = 1; level <= max_distance; ++level) {
    const std::vector<uint64_t>& prev = levels.back();
    std::vector<uint64_t> next(n);
    for (hin::VertexId v = 0; v < n; ++v) {
      elements.clear();
      for (hin::LinkTypeId lt : options.link_types) {
        for (const hin::Edge& e : graph.OutEdges(lt, v)) {
          elements.push_back(SerialEdgeElementHash(lt, false, e.strength,
                                                   prev[e.neighbor]));
        }
        if (options.use_in_edges) {
          for (const hin::Edge& e : graph.InEdges(lt, v)) {
            elements.push_back(SerialEdgeElementHash(lt, true, e.strength,
                                                     prev[e.neighbor]));
          }
        }
      }
      std::sort(elements.begin(), elements.end());
      uint64_t h = levels[0][v];
      for (uint64_t element : elements) h = util::HashCombine(h, element);
      next[v] = util::Mix64(h);
    }
    levels.push_back(std::move(next));
  }
  return levels;
}

// C(T) the slow, obvious way.
inline size_t SortUniqueCount(std::vector<uint64_t> values) {
  std::sort(values.begin(), values.end());
  return static_cast<size_t>(
      std::unique(values.begin(), values.end()) - values.begin());
}

// Every profile attribute of entity type 0 and every link type: the
// service's risk configuration.
inline SignatureOptions AllFeatures(const hin::Graph& graph,
                                    bool use_in_edges) {
  SignatureOptions options;
  for (hin::AttributeId a = 0; a < graph.num_attributes(0); ++a) {
    options.attributes.push_back(a);
  }
  options.link_types = AllLinkTypes(graph);
  options.use_in_edges = use_in_edges;
  return options;
}

// A heap graph as built, the same graph mapped from a snapshot, and the
// same graph after growth batches, whose touched adjacency runs come
// from the heap overlay.
enum class GraphKind { kHeap, kMapped, kGrown };

inline const char* GraphKindName(GraphKind kind) {
  switch (kind) {
    case GraphKind::kHeap:
      return "heap";
    case GraphKind::kMapped:
      return "mapped";
    case GraphKind::kGrown:
      return "grown";
  }
  return "?";
}

inline hin::Graph LadderGraph(GraphKind kind, uint64_t seed,
                              size_t num_users) {
  synth::TqqConfig config;
  config.num_users = num_users;
  util::Rng rng(seed);
  auto generated = synth::GenerateTqqNetwork(config, &rng);
  EXPECT_TRUE(generated.ok());
  hin::Graph graph = std::move(generated).value();
  if (kind == GraphKind::kMapped) {
    // The file goes when `temp` does; the mapping outlives the name.
    const testing_support::TempPath temp("ladder_" + std::to_string(seed) +
                                         ".snap");
    EXPECT_TRUE(hin::SaveGraphSnapshot(graph, temp.path()).ok());
    auto mapped = hin::LoadGraphAuto(temp.path());
    EXPECT_TRUE(mapped.ok());
    EXPECT_TRUE(mapped.value().is_mapped());
    return std::move(mapped).value();
  }
  if (kind == GraphKind::kGrown) {
    const synth::GrowthConfig growth;
    util::Rng growth_rng(seed + 1000);
    for (int batch = 0; batch < 3; ++batch) {
      auto delta =
          synth::SampleGrowthDelta(graph, growth, synth::TqqConfig{},
                                   &growth_rng);
      EXPECT_TRUE(delta.ok());
      EXPECT_TRUE(hin::GraphBuilder::ApplyDelta(&graph, delta.value()).ok());
    }
    EXPECT_GT(graph.overlay_stats().patched_runs, 0u);
  }
  return graph;
}

// Runs `fn` as a task on one of `pool`'s workers and returns its result,
// so exec::Executor::Current() is `pool` inside it.
template <typename Fn>
auto OnWorkerOf(exec::Executor& pool, Fn fn) -> decltype(fn()) {
  std::promise<decltype(fn())> done;
  auto result = done.get_future();
  pool.Submit([&] { done.set_value(fn()); });
  return result.get();
}

}  // namespace hinpriv::core::testing_ladder

#endif  // HINPRIV_TESTS_CORE_SERIAL_SIGNATURES_H_
