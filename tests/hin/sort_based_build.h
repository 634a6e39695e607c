// The reference for GraphBuilder::Build(): a copy of the build as it was
// when it sorted each link type's staged edges by (src, dst) and folded
// duplicates. The counting build must produce exactly these runs.
#ifndef HINPRIV_TESTS_HIN_SORT_BASED_BUILD_H_
#define HINPRIV_TESTS_HIN_SORT_BASED_BUILD_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hin/graph.h"
#include "hin/types.h"

namespace hinpriv::hin::testing_build {

struct StagedEdge {
  VertexId src;
  VertexId dst;
  Strength strength;
};

struct Csr {
  std::vector<uint64_t> offsets;  // n + 1
  std::vector<Edge> edges;
};

struct LinkCsr {
  Csr out;
  Csr in;
};

// One link type's out- and in-CSR over `n` vertices, built the old way:
// sort the staged list by (src, dst), sum the strengths of duplicates, and
// count-sort the merged list by source and by target.
inline LinkCsr SortBasedBuild(size_t n, std::vector<StagedEdge> edges) {
  std::sort(edges.begin(), edges.end(),
            [](const StagedEdge& a, const StagedEdge& b) {
              return a.src != b.src ? a.src < b.src : a.dst < b.dst;
            });
  size_t w = 0;
  for (size_t r = 0; r < edges.size(); ++r) {
    if (w > 0 && edges[w - 1].src == edges[r].src &&
        edges[w - 1].dst == edges[r].dst) {
      edges[w - 1].strength += edges[r].strength;
    } else {
      edges[w++] = edges[r];
    }
  }
  edges.resize(w);

  LinkCsr csr;
  auto& out = csr.out;
  out.offsets.assign(n + 1, 0);
  out.edges.resize(w);
  for (const auto& e : edges) ++out.offsets[e.src + 1];
  for (size_t v = 0; v < n; ++v) out.offsets[v + 1] += out.offsets[v];
  {
    std::vector<uint64_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
    for (const auto& e : edges) {
      out.edges[cursor[e.src]++] = Edge{e.dst, e.strength};
    }
  }
  auto& in = csr.in;
  in.offsets.assign(n + 1, 0);
  in.edges.resize(w);
  for (const auto& e : edges) ++in.offsets[e.dst + 1];
  for (size_t v = 0; v < n; ++v) in.offsets[v + 1] += in.offsets[v];
  {
    std::vector<uint64_t> cursor(in.offsets.begin(), in.offsets.end() - 1);
    for (const auto& e : edges) {
      in.edges[cursor[e.dst]++] = Edge{e.src, e.strength};
    }
  }
  return csr;
}

}  // namespace hinpriv::hin::testing_build

#endif  // HINPRIV_TESTS_HIN_SORT_BASED_BUILD_H_
