#include "hin/graph_builder.h"

#include <algorithm>
#include <memory>
#include <string>

namespace hinpriv::hin {

GraphBuilder::GraphBuilder(NetworkSchema schema) : schema_(std::move(schema)) {
  type_counts_.assign(schema_.num_entity_types(), 0);
  attrs_.resize(schema_.num_entity_types());
  for (size_t t = 0; t < schema_.num_entity_types(); ++t) {
    attrs_[t].resize(schema_.entity_type(static_cast<EntityTypeId>(t))
                         .attributes.size());
  }
  staged_.resize(schema_.num_link_types());
}

VertexId GraphBuilder::AddVertex(EntityTypeId entity_type) {
  if (entity_type >= schema_.num_entity_types()) return kInvalidVertex;
  const VertexId id = static_cast<VertexId>(vtype_.size());
  vtype_.push_back(entity_type);
  dense_idx_.push_back(static_cast<uint32_t>(type_counts_[entity_type]++));
  for (auto& column : attrs_[entity_type]) column.push_back(0);
  return id;
}

VertexId GraphBuilder::AddVertices(EntityTypeId entity_type, size_t count) {
  if (entity_type >= schema_.num_entity_types() || count == 0) {
    return kInvalidVertex;
  }
  const VertexId first = static_cast<VertexId>(vtype_.size());
  vtype_.resize(vtype_.size() + count, entity_type);
  dense_idx_.reserve(vtype_.size());
  for (size_t i = 0; i < count; ++i) {
    dense_idx_.push_back(static_cast<uint32_t>(type_counts_[entity_type]++));
  }
  for (auto& column : attrs_[entity_type]) {
    column.resize(column.size() + count, 0);
  }
  return first;
}

util::Status GraphBuilder::SetAttribute(VertexId v, AttributeId attr,
                                        AttrValue value) {
  if (v >= vtype_.size()) {
    return util::Status::OutOfRange("vertex id out of range");
  }
  const EntityTypeId t = vtype_[v];
  if (attr >= attrs_[t].size()) {
    return util::Status::OutOfRange(
        "attribute id out of range for entity type '" +
        schema_.entity_type(t).name + "'");
  }
  attrs_[t][attr][dense_idx_[v]] = value;
  return util::Status::OK();
}

util::Status GraphBuilder::AddEdge(VertexId src, VertexId dst, LinkTypeId link,
                                   Strength strength) {
  if (src >= vtype_.size() || dst >= vtype_.size()) {
    return util::Status::OutOfRange("edge endpoint out of range");
  }
  if (link >= schema_.num_link_types()) {
    return util::Status::OutOfRange("link type out of range");
  }
  if (strength == 0) {
    return util::Status::InvalidArgument("edge strength must be >= 1");
  }
  const LinkTypeDef& def = schema_.link_type(link);
  if (vtype_[src] != def.src || vtype_[dst] != def.dst) {
    return util::Status::InvalidArgument(
        "edge endpoints violate link type '" + def.name + "': got (" +
        schema_.entity_type(vtype_[src]).name + " -> " +
        schema_.entity_type(vtype_[dst]).name + ")");
  }
  if (src == dst && !def.allows_self_link) {
    return util::Status::InvalidArgument("self-link not allowed for '" +
                                         def.name + "'");
  }
  staged_[link].push_back(StagedEdge{src, dst, strength});
  return util::Status::OK();
}

size_t GraphBuilder::num_staged_edges() const {
  size_t total = 0;
  for (const auto& edges : staged_) total += edges.size();
  return total;
}

util::Result<Graph> GraphBuilder::Build() && {
  HINPRIV_RETURN_IF_ERROR(schema_.Validate());
  // All bulk data moves into a shared heap arena; the Graph holds spans
  // over it plus an owning reference, mirroring how mmap'd snapshots are
  // wired up (snapshot.h).
  auto arena = std::make_shared<internal::GraphArena>();
  arena->vtype = std::move(vtype_);
  arena->dense_idx = std::move(dense_idx_);
  arena->attrs = std::move(attrs_);

  Graph g;
  g.schema_ = std::move(schema_);
  g.type_counts_ = std::move(type_counts_);
  const size_t n = arena->vtype.size();
  const size_t num_links = g.schema_.num_link_types();
  arena->out.resize(num_links);
  arena->in.resize(num_links);
  g.num_edges_ = 0;

  for (size_t lt = 0; lt < num_links; ++lt) {
    auto& edges = staged_[lt];
    // Merge duplicates by summing strengths: sort by (src, dst) and fold.
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
    g.num_edges_ += w;

    // Out-CSR straight from the (src, dst)-sorted list.
    auto& out = arena->out[lt];
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

    // In-CSR via counting sort on dst; entries end up sorted by source id
    // because the staged list is (src, dst)-sorted.
    auto& in = arena->in[lt];
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
    edges.clear();
    edges.shrink_to_fit();
  }

  // Point the Graph's views at the (now-stable) arena storage.
  g.vtype_ = arena->vtype;
  g.dense_idx_ = arena->dense_idx;
  g.attrs_.resize(arena->attrs.size());
  for (size_t t = 0; t < arena->attrs.size(); ++t) {
    g.attrs_[t].assign(arena->attrs[t].begin(), arena->attrs[t].end());
  }
  g.out_.resize(num_links);
  g.in_.resize(num_links);
  for (size_t lt = 0; lt < num_links; ++lt) {
    g.out_[lt] =
        Graph::CsrView{arena->out[lt].offsets, arena->out[lt].edges, {}, {}};
    g.in_[lt] =
        Graph::CsrView{arena->in[lt].offsets, arena->in[lt].edges, {}, {}};
  }
  g.arena_ = std::move(arena);
  return g;
}

util::Status GraphBuilder::ApplyDelta(Graph* graph, const GraphDelta& delta) {
  return graph->ApplyDelta(delta);
}

util::Status CopyVerticesWithAttributes(const Graph& source,
                                        GraphBuilder* builder) {
  const VertexId offset = static_cast<VertexId>(builder->num_vertices());
  for (VertexId v = 0; v < source.num_vertices(); ++v) {
    const EntityTypeId t = source.entity_type(v);
    const VertexId id = builder->AddVertex(t);
    if (id == kInvalidVertex) {
      return util::Status::InvalidArgument(
          "source entity type out of range for builder schema");
    }
    const size_t num_attrs = source.num_attributes(t);
    for (AttributeId a = 0; a < num_attrs; ++a) {
      HINPRIV_RETURN_IF_ERROR(
          builder->SetAttribute(offset + v, a, source.attribute(v, a)));
    }
  }
  return util::Status::OK();
}

util::Status CopyEdges(const Graph& source, GraphBuilder* builder) {
  for (LinkTypeId lt = 0; lt < source.num_link_types(); ++lt) {
    for (VertexId v = 0; v < source.num_vertices(); ++v) {
      for (const Edge& e : source.OutEdges(lt, v)) {
        HINPRIV_RETURN_IF_ERROR(builder->AddEdge(v, e.neighbor, lt, e.strength));
      }
    }
  }
  return util::Status::OK();
}

}  // namespace hinpriv::hin
