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
    auto& out = arena->out[lt];
    {
      // Count sources into the offsets, then scatter each staged edge into
      // its source's run, in staging order. offsets[v] is v's fill cursor
      // and ends as v's end, so one shift turns the cursors into offsets.
      std::vector<StagedEdge> staged = std::move(staged_[lt]);
      out.offsets.assign(n + 1, 0);
      for (const StagedEdge& e : staged) ++out.offsets[e.src + 1];
      for (size_t v = 0; v < n; ++v) out.offsets[v + 1] += out.offsets[v];
      out.edges.resize(staged.size());
      for (const StagedEdge& e : staged) {
        out.edges[out.offsets[e.src]++] = Edge{e.dst, e.strength};
      }
    }  // the staged edges are freed before the in-CSR is allocated
    for (size_t v = n; v > 0; --v) out.offsets[v] = out.offsets[v - 1];
    out.offsets[0] = 0;

    // Sort each run by neighbor only when it is out of order, then merge
    // duplicate neighbors by summing strengths, closing the runs up
    // toward the front of the array as they shrink.
    const auto by_neighbor = [](const Edge& a, const Edge& b) {
      return a.neighbor < b.neighbor;
    };
    Edge* edges = out.edges.data();
    uint64_t write = 0;
    uint64_t begin = 0;
    for (size_t v = 0; v < n; ++v) {
      const uint64_t end = out.offsets[v + 1];
      if (!std::is_sorted(edges + begin, edges + end, by_neighbor)) {
        std::sort(edges + begin, edges + end, by_neighbor);
      }
      const uint64_t run_start = write;
      for (uint64_t r = begin; r < end; ++r) {
        if (write > run_start &&
            edges[write - 1].neighbor == edges[r].neighbor) {
          edges[write - 1].strength += edges[r].strength;
        } else {
          edges[write++] = edges[r];
        }
      }
      out.offsets[v + 1] = write;
      begin = end;
    }
    out.edges.resize(write);
    out.edges.shrink_to_fit();
    g.num_edges_ += write;

    // In-CSR: count targets, then visit the out-runs in source order, so
    // each in-run comes out sorted by source; the same cursor shift.
    auto& in = arena->in[lt];
    in.offsets.assign(n + 1, 0);
    for (const Edge& e : out.edges) ++in.offsets[e.neighbor + 1];
    for (size_t v = 0; v < n; ++v) in.offsets[v + 1] += in.offsets[v];
    in.edges.resize(write);
    for (size_t v = 0; v < n; ++v) {
      for (uint64_t i = out.offsets[v]; i < out.offsets[v + 1]; ++i) {
        const Edge& e = out.edges[i];
        in.edges[in.offsets[e.neighbor]++] =
            Edge{static_cast<VertexId>(v), e.strength};
      }
    }
    for (size_t v = n; v > 0; --v) in.offsets[v] = in.offsets[v - 1];
    in.offsets[0] = 0;
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
