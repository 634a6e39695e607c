#ifndef HINPRIV_HIN_SUBGRAPH_H_
#define HINPRIV_HIN_SUBGRAPH_H_

#include <vector>

#include "hin/graph.h"
#include "hin/types.h"
#include "util/random.h"
#include "util/status.h"

namespace hinpriv::hin {

// An induced subgraph plus the mapping back to the parent graph.
struct SubgraphResult {
  Graph graph;
  // to_parent[sub-vertex-id] = vertex id in the parent graph.
  std::vector<VertexId> to_parent;
};

// Extracts the vertex-induced subgraph on `vertices` (all edges among them
// are preserved, matching the paper's target-graph sampling procedure).
// Vertex ids in the subgraph follow the order of `vertices`; duplicates or
// out-of-range ids are an error.
util::Result<SubgraphResult> InducedSubgraph(
    const Graph& parent, const std::vector<VertexId>& vertices);

// Uniformly samples `count` distinct vertices (paper Section 6.1: "vertices
// are randomly sampled and all the edges among them are preserved") and
// extracts the induced subgraph. When `entity_type` is valid, sampling is
// restricted to vertices of that type.
util::Result<SubgraphResult> SampleInducedSubgraph(
    const Graph& parent, size_t count, util::Rng* rng,
    EntityTypeId entity_type = kInvalidEntityType);

}  // namespace hinpriv::hin

#endif  // HINPRIV_HIN_SUBGRAPH_H_
