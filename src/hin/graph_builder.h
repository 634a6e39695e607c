#ifndef HINPRIV_HIN_GRAPH_BUILDER_H_
#define HINPRIV_HIN_GRAPH_BUILDER_H_

#include <vector>

#include "hin/graph.h"
#include "hin/schema.h"
#include "hin/types.h"
#include "util/status.h"

namespace hinpriv::hin {

struct GraphDelta;

// Mutable staging area for constructing an immutable Graph.
//
// Usage:
//   GraphBuilder b(schema);
//   VertexId v = b.AddVertex(user_type);
//   b.SetAttribute(v, yob, 1980);
//   b.AddEdge(v, u, mention, /*strength=*/5);
//   util::Result<Graph> g = std::move(b).Build();
//
// Duplicate (src, dst) pairs within one link type are merged by summing
// strengths, matching how the t.qq interaction logs aggregate repeated
// mentions/retweets/comments into a single strength value.
class GraphBuilder {
 public:
  explicit GraphBuilder(NetworkSchema schema);

  GraphBuilder(const GraphBuilder&) = delete;
  GraphBuilder& operator=(const GraphBuilder&) = delete;
  GraphBuilder(GraphBuilder&&) = default;
  GraphBuilder& operator=(GraphBuilder&&) = default;

  // Adds a vertex of the given entity type with all attributes zero.
  // Returns kInvalidVertex if the entity type is out of range.
  VertexId AddVertex(EntityTypeId entity_type);

  // Bulk-adds `count` vertices of one type; returns the first id.
  VertexId AddVertices(EntityTypeId entity_type, size_t count);

  util::Status SetAttribute(VertexId v, AttributeId attr, AttrValue value);

  // Stages a directed edge. Strength must be >= 1; for unweighted link
  // types pass 1. Endpoint entity types are validated against the schema.
  util::Status AddEdge(VertexId src, VertexId dst, LinkTypeId link,
                       Strength strength = 1);

  size_t num_vertices() const { return vtype_.size(); }
  size_t num_staged_edges() const;

  // Finalizes into per-link-type CSR, out and in, in O(V + E) per link
  // type: staged edges are scattered into their source's run, a run is
  // sorted by neighbor only when it is out of order, duplicates merge by
  // summing strengths, and the in-CSR is one counting pass over the
  // finished out-CSR, so in-runs come out sorted by source. Consumes the
  // builder.
  util::Result<Graph> Build() &&;

  // Applies one growth batch (graph_delta.h) to a heap-built or mapped
  // graph. The base arena stays read-only: the batch lands in the graph's
  // overlay (graph.h), which appends the new vertices to heap copies of
  // the per-vertex columns, applies growable-attribute bumps to those
  // copies, and merges the new edges into per-vertex runs of their own.
  // Only the runs the batch touches are rewritten, at O(|delta| log
  // |delta| + sum of their degrees); an adjacency whose patched runs
  // exceed V/4 is folded into a fresh heap CSR in O(V + E). The result is
  // bit-identical to what Build() would produce over the union edge
  // multiset. Invalid deltas are rejected before the first write, leaving
  // the graph untouched. The caller must guarantee exclusive access to the
  // graph (and everything holding spans into it) for the duration of the
  // call.
  static util::Status ApplyDelta(Graph* graph, const GraphDelta& delta);

 private:
  struct StagedEdge {
    VertexId src;
    VertexId dst;
    Strength strength;
  };

  NetworkSchema schema_;
  std::vector<EntityTypeId> vtype_;
  std::vector<uint32_t> dense_idx_;
  std::vector<size_t> type_counts_;
  std::vector<std::vector<std::vector<AttrValue>>> attrs_;
  std::vector<std::vector<StagedEdge>> staged_;  // one per link type
};

// Appends every vertex of `source` (with its attributes) to `builder`, in
// id order. The builder must be empty (or the caller must account for the
// id offset — with an empty builder, ids are preserved). The builder's
// schema must match the source's layout.
util::Status CopyVerticesWithAttributes(const Graph& source,
                                        GraphBuilder* builder);

// Stages every edge of `source` into `builder` (same vertex ids).
util::Status CopyEdges(const Graph& source, GraphBuilder* builder);

}  // namespace hinpriv::hin

#endif  // HINPRIV_HIN_GRAPH_BUILDER_H_
