#ifndef HINPRIV_HIN_GRAPH_DELTA_H_
#define HINPRIV_HIN_GRAPH_DELTA_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "hin/graph.h"
#include "hin/schema.h"
#include "hin/types.h"
#include "util/status.h"

namespace hinpriv::hin {

// One append-only growth batch over an existing Graph, matching the paper's
// monotone growth model (Section 5.1): new vertices with their profile
// attributes, positive bumps to growable attributes of existing vertices,
// and new or strengthened links. A delta is replayable — applying the same
// delta to the same base graph always yields the same grown graph.
struct GraphDelta {
  struct NewVertex {
    EntityTypeId type = kInvalidEntityType;
    std::vector<AttrValue> attrs;  // one per attribute of `type`, in order
  };
  struct AttrBump {
    VertexId v = kInvalidVertex;
    AttributeId attr = 0;
    AttrValue delta = 0;  // > 0; growable attributes only
  };
  struct EdgeAdd {
    LinkTypeId link = kInvalidLinkType;
    VertexId src = kInvalidVertex;
    VertexId dst = kInvalidVertex;
    Strength strength = 0;  // sums into an existing edge on growable links
  };

  // Number of vertices in the graph this delta was sampled against. New
  // vertices take ids base_num_vertices .. base_num_vertices + k - 1, and
  // EdgeAdd endpoints may reference them.
  size_t base_num_vertices = 0;
  std::vector<NewVertex> new_vertices;
  std::vector<AttrBump> attr_bumps;
  std::vector<EdgeAdd> edge_adds;

  bool empty() const {
    return new_vertices.empty() && attr_bumps.empty() && edge_adds.empty();
  }
  // Total number of delta records — the |delta| of the O(|delta|) cost
  // claims in the incremental maintenance paths.
  size_t size() const {
    return new_vertices.size() + attr_bumps.size() + edge_adds.size();
  }
};

// Structural validation of `delta` against the graph it is about to be
// applied to: base_num_vertices matches, new-vertex types and attribute
// counts fit the schema, attr bumps hit growable attributes of existing
// vertices with positive deltas, edge endpoints resolve against the
// post-append vertex set with entity types matching the link definition,
// strengths are >= 1, and self-links appear only where allowed. Duplicate
// edges (vs. the base graph or within the delta) are checked by
// GraphBuilder::PrepareDelta, where non-growable link types reject them
// and growable ones fold by summing.
util::Status ValidateDelta(const Graph& graph, const GraphDelta& delta);

// Text serialization of a delta stream: one or more batches, replayed in
// order by `hinpriv_cli query --method=apply_delta --path=...`.
//
//   hinpriv-delta 1
//   batch <base_num_vertices>
//   new_vertices <count>
//     <entity_type> <attr_0> ... <attr_k>
//   attr_bumps <count>
//     <vertex> <attr> <delta>
//   edge_adds <count>
//     <link_type> <src> <dst> <strength>
//   end
//   ...                                  (more batches)
//   done
util::Status SaveDeltaStream(const std::vector<GraphDelta>& deltas,
                             std::ostream& os);
util::Status SaveDeltaStreamToFile(const std::vector<GraphDelta>& deltas,
                                   const std::string& path);
// Reads `is` in chunks (util::LineReader), so it consumes the stream past
// the "done" terminator, to the end of the chunk it read: the stream must
// hold this one delta stream, not one followed by another payload.
util::Result<std::vector<GraphDelta>> LoadDeltaStream(std::istream& is);
util::Result<std::vector<GraphDelta>> LoadDeltaStreamFromFile(
    const std::string& path);

}  // namespace hinpriv::hin

#endif  // HINPRIV_HIN_GRAPH_DELTA_H_
