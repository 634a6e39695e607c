#include "hin/subgraph.h"

#include <cstdint>
#include <unordered_map>

#include "hin/graph_builder.h"

namespace hinpriv::hin {

util::Result<SubgraphResult> InducedSubgraph(
    const Graph& parent, const std::vector<VertexId>& vertices) {
  std::unordered_map<VertexId, VertexId> to_sub;
  to_sub.reserve(vertices.size());
  GraphBuilder builder(parent.schema());
  for (VertexId pv : vertices) {
    if (pv >= parent.num_vertices()) {
      return util::Status::OutOfRange("subgraph vertex id out of range");
    }
    if (to_sub.contains(pv)) {
      return util::Status::InvalidArgument("duplicate vertex in subgraph set");
    }
    const VertexId sv = builder.AddVertex(parent.entity_type(pv));
    to_sub.emplace(pv, sv);
    const EntityTypeId t = parent.entity_type(pv);
    const size_t num_attrs = parent.num_attributes(t);
    for (AttributeId a = 0; a < num_attrs; ++a) {
      HINPRIV_RETURN_IF_ERROR(
          builder.SetAttribute(sv, a, parent.attribute(pv, a)));
    }
  }
  const size_t num_links = parent.num_link_types();
  for (VertexId pv : vertices) {
    const VertexId sv = to_sub.at(pv);
    for (LinkTypeId lt = 0; lt < num_links; ++lt) {
      for (const Edge& e : parent.OutEdges(lt, pv)) {
        auto it = to_sub.find(e.neighbor);
        if (it == to_sub.end()) continue;
        HINPRIV_RETURN_IF_ERROR(
            builder.AddEdge(sv, it->second, lt, e.strength));
      }
    }
  }
  auto built = std::move(builder).Build();
  if (!built.ok()) return built.status();
  SubgraphResult result{std::move(built).value(), vertices};
  return result;
}

util::Result<SubgraphResult> SampleInducedSubgraph(const Graph& parent,
                                                   size_t count,
                                                   util::Rng* rng,
                                                   EntityTypeId entity_type) {
  std::vector<VertexId> pool;
  if (entity_type == kInvalidEntityType) {
    pool.resize(parent.num_vertices());
    for (VertexId v = 0; v < parent.num_vertices(); ++v) pool[v] = v;
  } else {
    if (entity_type >= parent.schema().num_entity_types()) {
      return util::Status::InvalidArgument("entity type out of range");
    }
    pool.reserve(parent.NumVerticesOfType(entity_type));
    for (VertexId v = 0; v < parent.num_vertices(); ++v) {
      if (parent.entity_type(v) == entity_type) pool.push_back(v);
    }
  }
  if (count > pool.size()) {
    return util::Status::InvalidArgument(
        "sample size exceeds available vertices");
  }
  const auto picks = rng->SampleWithoutReplacement(pool.size(), count);
  std::vector<VertexId> vertices;
  vertices.reserve(count);
  for (uint64_t i : picks) vertices.push_back(pool[i]);
  return InducedSubgraph(parent, vertices);
}

}  // namespace hinpriv::hin
