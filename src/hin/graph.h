#ifndef HINPRIV_HIN_GRAPH_H_
#define HINPRIV_HIN_GRAPH_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "hin/schema.h"
#include "hin/types.h"
#include "util/status.h"

namespace hinpriv::hin {

// One directed adjacency entry: the neighbor and the link strength
// (1 for unweighted link types such as follow).
struct Edge {
  VertexId neighbor = kInvalidVertex;
  Strength strength = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

// The snapshot format (snapshot.h) stores Edge arrays verbatim, so the
// in-memory layout is part of the on-disk contract.
static_assert(sizeof(Edge) == 8 && std::is_trivially_copyable_v<Edge>,
              "Edge layout is part of the HINPRIVS snapshot format");

namespace internal {

// Heap backing store for a Graph built by GraphBuilder. The Graph's spans
// point into these vectors; a shared_ptr to the arena keeps them alive.
// Mapped snapshots use a util::MappedFile as the arena instead — the Graph
// never knows (or cares) which one backs it. Never written after Build().
struct GraphArena {
  struct Csr {
    std::vector<uint64_t> offsets;  // size num_vertices + 1
    std::vector<Edge> edges;
  };

  std::vector<EntityTypeId> vtype;
  std::vector<uint32_t> dense_idx;
  // attrs[entity_type][attribute][dense_index]
  std::vector<std::vector<std::vector<AttrValue>>> attrs;
  std::vector<Csr> out;  // one per link type
  std::vector<Csr> in;   // one per link type
};

inline constexpr uint32_t kNoPatch = std::numeric_limits<uint32_t>::max();
// Row 0 of every patched adjacency: the empty run all patched vertices
// without edges share, so a new vertex costs a row index, not a vector.
inline constexpr uint32_t kEmptyRun = 0;

// Everything growth deltas (GraphBuilder::ApplyDelta) changed in a Graph,
// kept on the heap beside the read-only base arena. The first delta copies
// the per-vertex columns here; later ones append to and write the copies.
// Every adjacency run a delta touches is merged into a vector of its own.
// The Graph holds this through a pointer, so moving the Graph moves none
// of the bytes its spans point into.
struct GraphOverlay {
  // One link type in one direction.
  struct Adjacency {
    // patch_row[v] is v's index in `runs`, or kNoPatch while v's run is
    // the CSR's. Empty until the first patch, then one entry per vertex;
    // vertices the CSR does not cover are always patched.
    std::vector<uint32_t> patch_row;
    // Each sorted by neighbor id; runs[kEmptyRun] stays empty.
    std::vector<std::vector<Edge>> runs;
    size_t run_edges = 0;  // entries across `runs`
    // The heap CSR the last compaction folded the CSR and `runs` into; it
    // replaces the base arena's CSR for this adjacency. Empty before.
    std::vector<uint64_t> offsets;
    std::vector<Edge> edges;
  };

  std::vector<EntityTypeId> vtype;
  std::vector<uint32_t> dense_idx;
  std::vector<std::vector<std::vector<AttrValue>>> attrs;
  std::vector<Adjacency> out;  // one per link type
  std::vector<Adjacency> in;   // one per link type
  uint64_t compactions = 0;
};

}  // namespace internal

class SnapshotReader;
struct GraphDelta;

// A heterogeneous information network instance (Definition 1): a directed
// graph whose vertices carry an entity type and per-type profile
// attributes, and whose edges carry a link type and a strength.
//
// Storage is per-link-type CSR, with both out- and in-adjacency, entries
// sorted by neighbor id; attributes are columnar per entity type. All bulk
// data is exposed through std::span views over an owned arena — either a
// heap arena filled by GraphBuilder (graph_builder.h) or an mmap'd snapshot
// (snapshot.h) used in place with zero deserialization. The arena is never
// written. The graph is mutated only by GraphBuilder::ApplyDelta, under the
// caller's exclusion, which puts every change into a heap overlay: a
// patched vertex's adjacency run lives in its own vector, and the
// accessors check a per-vertex patch row before the CSR (one compare when
// nothing is patched). Between deltas const access is safe to share across
// threads; moving a Graph does not invalidate spans already taken from it
// (neither the arena's nor the overlay's bytes move).
class Graph {
 public:
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  const NetworkSchema& schema() const { return schema_; }

  size_t num_vertices() const { return vtype_.size(); }
  // Total directed edges across all link types (after duplicate merging).
  size_t num_edges() const { return num_edges_; }
  size_t num_link_types() const { return schema_.num_link_types(); }

  EntityTypeId entity_type(VertexId v) const { return vtype_[v]; }
  size_t NumVerticesOfType(EntityTypeId t) const {
    return type_counts_[t];
  }

  // Out-neighbors of v via link type lt, sorted by neighbor id.
  std::span<const Edge> OutEdges(LinkTypeId lt, VertexId v) const {
    return Run(out_[lt], v);
  }
  // In-neighbors of v via link type lt (edge.neighbor is the source vertex),
  // sorted by neighbor id.
  std::span<const Edge> InEdges(LinkTypeId lt, VertexId v) const {
    return Run(in_[lt], v);
  }

  size_t OutDegree(LinkTypeId lt, VertexId v) const {
    return OutEdges(lt, v).size();
  }
  size_t InDegree(LinkTypeId lt, VertexId v) const {
    return InEdges(lt, v).size();
  }
  // Out-degree summed over all link types.
  size_t TotalOutDegree(VertexId v) const;

  // Strength of the edge src --lt--> dst, or 0 if absent. O(log deg).
  Strength EdgeStrength(LinkTypeId lt, VertexId src, VertexId dst) const;
  bool HasEdge(LinkTypeId lt, VertexId src, VertexId dst) const {
    return EdgeStrength(lt, src, dst) > 0;
  }

  // Profile attribute `attr` (an AttributeId within v's entity type) of v.
  AttrValue attribute(VertexId v, AttributeId attr) const {
    return attrs_[vtype_[v]][attr][dense_idx_[v]];
  }
  size_t num_attributes(EntityTypeId t) const {
    return schema_.entity_type(t).attributes.size();
  }

  // The full attribute column for one entity type; index i holds the value
  // for the i-th vertex of that type in vertex-id order. Used by cardinality
  // and index-building code paths.
  std::span<const AttrValue> AttributeColumn(EntityTypeId t,
                                             AttributeId attr) const {
    return attrs_[t][attr];
  }
  // Position of v inside its entity type's attribute columns.
  uint32_t dense_index(VertexId v) const { return dense_idx_[v]; }

  // True when this graph's base arena is an mmap'd snapshot rather than a
  // heap arena (diagnostics / bench labeling only — behaviour, growth
  // included, is identical either way).
  bool is_mapped() const { return mapped_; }

  // Size of the overlay growth deltas have built (all zero before the
  // first delta): adjacency runs read from the overlay, the edges they
  // hold, and compactions that folded an adjacency into a fresh CSR.
  struct OverlayStats {
    size_t patched_runs = 0;
    size_t patched_edges = 0;
    uint64_t compactions = 0;
  };
  OverlayStats overlay_stats() const;

 private:
  friend class GraphBuilder;
  friend class SnapshotReader;
  Graph() = default;

  // One link type in one direction: a CSR (the base arena's, or the
  // overlay's after a compaction) and the overlay's patch table over it.
  struct CsrView {
    std::span<const uint64_t> offsets;  // vertices the CSR covers + 1
    std::span<const Edge> edges;
    std::span<const uint32_t> patch_row;  // empty: nothing patched
    const std::vector<Edge>* runs = nullptr;
  };

  static std::span<const Edge> Run(const CsrView& adj, VertexId v) {
    if (v < adj.patch_row.size() && adj.patch_row[v] != internal::kNoPatch) {
      return adj.runs[adj.patch_row[v]];
    }
    return adj.edges.subspan(adj.offsets[v],
                             adj.offsets[v + 1] - adj.offsets[v]);
  }

  // The body of GraphBuilder::ApplyDelta (graph_builder.h): validates the
  // delta, then writes it into the overlay.
  util::Status ApplyDelta(const GraphDelta& delta);
  // Makes `run` vertex v's run in one adjacency. An empty run for a vertex
  // without one of its own takes the shared kEmptyRun row.
  void SetRun(bool incoming, LinkTypeId lt, VertexId v, std::vector<Edge> run);
  // Merges `adds` (sorted by neighbor; repeats fold by summing strengths)
  // into v's run in one adjacency and returns how many entries the run
  // gained. A run v owns grows in place; any other run is copied once.
  size_t MergeRun(bool incoming, LinkTypeId lt, VertexId v,
                  std::span<const Edge> adds);
  // Folds one adjacency's CSR and runs into a fresh heap CSR once it has
  // more than V/4 runs of its own.
  void CompactIfLarge(bool incoming, LinkTypeId lt);

  NetworkSchema schema_;
  std::span<const EntityTypeId> vtype_;
  std::span<const uint32_t> dense_idx_;
  std::vector<size_t> type_counts_;
  // attrs_[entity_type][attribute] -> column span of length type_counts_
  std::vector<std::vector<std::span<const AttrValue>>> attrs_;
  std::vector<CsrView> out_;  // one per link type
  std::vector<CsrView> in_;   // one per link type
  size_t num_edges_ = 0;
  bool mapped_ = false;
  // Type-erased owner of the base bytes the spans above reference: an
  // internal::GraphArena for built graphs, a util::MappedFile for
  // snapshots.
  std::shared_ptr<const void> arena_;
  // Null until the first delta.
  std::unique_ptr<internal::GraphOverlay> overlay_;
};

}  // namespace hinpriv::hin

#endif  // HINPRIV_HIN_GRAPH_H_
