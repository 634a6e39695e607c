#include "core/signature.h"

#include <algorithm>

#include "core/value_counts.h"
#include "exec/executor.h"
#include "util/hashing.h"

namespace hinpriv::core {

namespace {

using util::HashCombine;
using util::Mix64;

// Canonical hash of one neighborhood element: the link type, traversal
// direction, link strength, and the neighbor's previous-level signature.
uint64_t EdgeElementHash(hin::LinkTypeId lt, bool incoming,
                         hin::Strength strength, uint64_t neighbor_sig) {
  uint64_t h = HashCombine(0x9d39247e33776d41ULL, lt);
  h = HashCombine(h, incoming ? 1 : 0);
  h = HashCombine(h, strength);
  h = HashCombine(h, neighbor_sig);
  return Mix64(h);
}

// sig_n(v) from sig_0(v) and the previous level `prev`; `elements` is the
// caller's scratch.
uint64_t NextSignature(const hin::Graph& graph, const SignatureOptions& options,
                       const std::vector<uint64_t>& prev, uint64_t sig0,
                       hin::VertexId v, std::vector<uint64_t>* elements) {
  elements->clear();
  for (hin::LinkTypeId lt : options.link_types) {
    for (const hin::Edge& e : graph.OutEdges(lt, v)) {
      elements->push_back(EdgeElementHash(lt, /*incoming=*/false, e.strength,
                                          prev[e.neighbor]));
    }
    if (options.use_in_edges) {
      for (const hin::Edge& e : graph.InEdges(lt, v)) {
        elements->push_back(EdgeElementHash(lt, /*incoming=*/true, e.strength,
                                            prev[e.neighbor]));
      }
    }
  }
  // Canonical form: neighborhood elements are a multiset, so sort the
  // element hashes before the order-dependent fold.
  std::sort(elements->begin(), elements->end());
  uint64_t h = sig0;
  for (uint64_t element : *elements) h = HashCombine(h, element);
  return Mix64(h);
}

}  // namespace

std::vector<std::vector<uint64_t>> ComputeSignatures(
    const hin::Graph& graph, const SignatureOptions& options,
    int max_distance) {
  const size_t n = graph.num_vertices();
  // The caller's own pool when it is an executor worker (a server's risk
  // verb stays on the server's workers), otherwise the process-wide one.
  exec::Executor* current = exec::Executor::Current();
  exec::Executor& pool =
      current != nullptr ? *current : exec::Executor::Global();
  std::vector<std::vector<uint64_t>> levels;
  levels.reserve(static_cast<size_t>(max_distance) + 1);

  // Every level below is a ParallelFor over the vertices in which vertex v
  // writes only slot v and reads only earlier levels, so each level is the
  // same under any schedule (DESIGN.md §8).

  // Distance 0: the selected profile attributes, order-dependently combined
  // (attribute identity is part of the value).
  std::vector<uint64_t> sig0(n);
  pool.ParallelFor(n, [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      uint64_t h = 0x2545f4914f6cdd1dULL;
      for (hin::AttributeId a : options.attributes) {
        h = HashCombine(h, static_cast<uint64_t>(static_cast<int64_t>(
                               graph.attribute(static_cast<hin::VertexId>(v),
                                               a))));
      }
      sig0[v] = Mix64(h);
    }
  });
  levels.push_back(std::move(sig0));

  for (int level = 1; level <= max_distance; ++level) {
    const std::vector<uint64_t>& prev = levels.back();
    const std::vector<uint64_t>& base = levels.front();
    std::vector<uint64_t> next(n);
    pool.ParallelFor(n, [&](size_t begin, size_t end) {
      std::vector<uint64_t> elements;  // one scratch per grain
      for (size_t v = begin; v < end; ++v) {
        next[v] = NextSignature(graph, options, prev, base[v],
                                static_cast<hin::VertexId>(v), &elements);
      }
    });
    levels.push_back(std::move(next));
  }
  return levels;
}

size_t CountDistinct(std::span<const uint64_t> values) {
  return ValueCounts(values).num_distinct();
}

}  // namespace hinpriv::core
