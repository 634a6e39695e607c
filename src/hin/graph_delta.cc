#include "hin/graph_delta.h"

#include <fstream>
#include <ostream>
#include <string_view>

#include "util/line_reader.h"
#include "util/string_util.h"

namespace hinpriv::hin {

namespace {

constexpr char kMagic[] = "hinpriv-delta";
constexpr int kVersion = 1;

// Parses a section header "<keyword> <count>" and returns the count.
util::Result<uint64_t> SectionCount(util::LineReader* reader,
                                    const char* keyword) {
  HINPRIV_RETURN_IF_ERROR(reader->NextRow(2));
  if (reader->fields()[0] != keyword) {
    return util::Status::Corruption(std::string("expected '") + keyword +
                                    "' section, got: '" +
                                    std::string(reader->line()) + "'");
  }
  return util::ParseUint64(reader->fields()[1]);
}

}  // namespace

util::Status ValidateDelta(const Graph& graph, const GraphDelta& delta) {
  const NetworkSchema& schema = graph.schema();
  if (delta.base_num_vertices != graph.num_vertices()) {
    return util::Status::FailedPrecondition(
        "delta base vertex count " + std::to_string(delta.base_num_vertices) +
        " does not match graph (" + std::to_string(graph.num_vertices()) + ")");
  }
  const size_t base_n = delta.base_num_vertices;
  const size_t grown_n = base_n + delta.new_vertices.size();

  for (const GraphDelta::NewVertex& nv : delta.new_vertices) {
    if (nv.type >= schema.num_entity_types()) {
      return util::Status::InvalidArgument("new vertex entity type out of range");
    }
    if (nv.attrs.size() != schema.entity_type(nv.type).attributes.size()) {
      return util::Status::InvalidArgument(
          "new vertex attribute count mismatch for entity type '" +
          schema.entity_type(nv.type).name + "'");
    }
  }

  for (const GraphDelta::AttrBump& bump : delta.attr_bumps) {
    if (bump.v >= base_n) {
      return util::Status::InvalidArgument(
          "attr bump targets a non-base vertex " + std::to_string(bump.v));
    }
    const EntityTypeId t = graph.entity_type(bump.v);
    const auto& attrs = schema.entity_type(t).attributes;
    if (bump.attr >= attrs.size()) {
      return util::Status::InvalidArgument("attr bump attribute out of range");
    }
    if (!attrs[bump.attr].growable) {
      return util::Status::InvalidArgument(
          "attr bump on non-growable attribute '" + attrs[bump.attr].name +
          "' — growth is monotone on growable attributes only");
    }
    if (bump.delta <= 0) {
      return util::Status::InvalidArgument(
          "attr bump delta must be positive (monotone growth)");
    }
  }

  auto type_of = [&](VertexId v) -> EntityTypeId {
    return v < base_n ? graph.entity_type(v)
                      : delta.new_vertices[v - base_n].type;
  };
  for (const GraphDelta::EdgeAdd& e : delta.edge_adds) {
    if (e.link >= schema.num_link_types()) {
      return util::Status::InvalidArgument("edge add link type out of range");
    }
    if (e.src >= grown_n || e.dst >= grown_n) {
      return util::Status::InvalidArgument("edge add endpoint out of range");
    }
    if (e.strength == 0) {
      return util::Status::InvalidArgument("edge add strength must be >= 1");
    }
    const LinkTypeDef& def = schema.link_type(e.link);
    if (type_of(e.src) != def.src || type_of(e.dst) != def.dst) {
      return util::Status::InvalidArgument(
          "edge add endpoints violate link type '" + def.name + "'");
    }
    if (e.src == e.dst && !def.allows_self_link) {
      return util::Status::InvalidArgument("self-link not allowed for '" +
                                           def.name + "'");
    }
  }
  return util::Status::OK();
}

util::Status SaveDeltaStream(const std::vector<GraphDelta>& deltas,
                             std::ostream& os) {
  os << kMagic << ' ' << kVersion << '\n';
  for (const GraphDelta& d : deltas) {
    os << "batch " << d.base_num_vertices << '\n';
    os << "new_vertices " << d.new_vertices.size() << '\n';
    for (const auto& nv : d.new_vertices) {
      os << nv.type;
      for (AttrValue a : nv.attrs) os << ' ' << a;
      os << '\n';
    }
    os << "attr_bumps " << d.attr_bumps.size() << '\n';
    for (const auto& b : d.attr_bumps) {
      os << b.v << ' ' << b.attr << ' ' << b.delta << '\n';
    }
    os << "edge_adds " << d.edge_adds.size() << '\n';
    for (const auto& e : d.edge_adds) {
      os << e.link << ' ' << e.src << ' ' << e.dst << ' ' << e.strength
         << '\n';
    }
    os << "end\n";
  }
  os << "done\n";
  if (!os) return util::Status::IoError("write failure while saving deltas");
  return util::Status::OK();
}

util::Status SaveDeltaStreamToFile(const std::vector<GraphDelta>& deltas,
                                   const std::string& path) {
  std::ofstream out(path);
  if (!out) return util::Status::IoError("cannot open for write: " + path);
  return SaveDeltaStream(deltas, out);
}

util::Result<std::vector<GraphDelta>> LoadDeltaStream(std::istream& is) {
  util::LineReader reader(is, "delta", &util::Status::Corruption);
  const std::vector<std::string_view>& fields = reader.fields();
  HINPRIV_RETURN_IF_ERROR(reader.NextRow(2));
  if (fields[0] != kMagic) {
    return util::Status::Corruption("bad magic: expected 'hinpriv-delta'");
  }
  {
    auto version = util::ParseInt64(fields[1]);
    if (!version.ok() || version.value() != kVersion) {
      return util::Status::Corruption("unsupported delta format version");
    }
  }

  std::vector<GraphDelta> deltas;
  while (true) {
    HINPRIV_RETURN_IF_ERROR(reader.NextLine());
    if (reader.line() == "done") break;
    HINPRIV_RETURN_IF_ERROR(reader.Split(2));
    if (fields[0] != "batch") {
      return util::Status::Corruption("expected 'batch' or 'done', got: '" +
                                      std::string(reader.line()) + "'");
    }
    auto base_n = util::ParseUint64(fields[1]);
    if (!base_n.ok()) return base_n.status();

    GraphDelta d;
    d.base_num_vertices = base_n.value();

    auto num_new = SectionCount(&reader, "new_vertices");
    if (!num_new.ok()) return num_new.status();
    d.new_vertices.reserve(util::LineReader::ReservedRows(num_new.value()));
    for (uint64_t i = 0; i < num_new.value(); ++i) {
      HINPRIV_RETURN_IF_ERROR(reader.NextRow(1));
      GraphDelta::NewVertex nv;
      auto type = util::ParseInteger<EntityTypeId>(fields[0]);
      if (!type.ok()) return type.status();
      nv.type = type.value();
      nv.attrs.reserve(fields.size() - 1);
      for (size_t f = 1; f < fields.size(); ++f) {
        auto value = util::ParseInteger<AttrValue>(fields[f]);
        if (!value.ok()) return value.status();
        nv.attrs.push_back(value.value());
      }
      d.new_vertices.push_back(std::move(nv));
    }

    auto num_bumps = SectionCount(&reader, "attr_bumps");
    if (!num_bumps.ok()) return num_bumps.status();
    d.attr_bumps.reserve(util::LineReader::ReservedRows(num_bumps.value()));
    for (uint64_t i = 0; i < num_bumps.value(); ++i) {
      HINPRIV_RETURN_IF_ERROR(reader.NextRow(3));
      auto v = util::ParseInteger<VertexId>(fields[0]);
      auto attr = util::ParseInteger<AttributeId>(fields[1]);
      auto delta = util::ParseInteger<AttrValue>(fields[2]);
      if (!v.ok()) return v.status();
      if (!attr.ok()) return attr.status();
      if (!delta.ok()) return delta.status();
      d.attr_bumps.push_back(
          GraphDelta::AttrBump{v.value(), attr.value(), delta.value()});
    }

    auto num_edges = SectionCount(&reader, "edge_adds");
    if (!num_edges.ok()) return num_edges.status();
    d.edge_adds.reserve(util::LineReader::ReservedRows(num_edges.value()));
    for (uint64_t i = 0; i < num_edges.value(); ++i) {
      HINPRIV_RETURN_IF_ERROR(reader.NextRow(4));
      auto lt = util::ParseInteger<LinkTypeId>(fields[0]);
      auto src = util::ParseInteger<VertexId>(fields[1]);
      auto dst = util::ParseInteger<VertexId>(fields[2]);
      auto strength = util::ParseInteger<Strength>(fields[3]);
      if (!lt.ok()) return lt.status();
      for (const auto* s : {&src, &dst, &strength}) {
        if (!s->ok()) return s->status();
      }
      d.edge_adds.push_back(GraphDelta::EdgeAdd{
          lt.value(), src.value(), dst.value(), strength.value()});
    }

    HINPRIV_RETURN_IF_ERROR(reader.NextLine());
    if (reader.line() != "end") {
      return util::Status::Corruption("missing 'end' batch terminator");
    }
    deltas.push_back(std::move(d));
  }
  return deltas;
}

util::Result<std::vector<GraphDelta>> LoadDeltaStreamFromFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::IoError("cannot open for read: " + path);
  return LoadDeltaStream(in);
}

}  // namespace hinpriv::hin
