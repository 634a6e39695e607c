#include "hin/io.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "hin/graph_builder.h"
#include "util/string_util.h"

namespace hinpriv::hin {

namespace {

constexpr char kMagic[] = "hinpriv-graph";
constexpr int kVersion = 1;

// Reads the next non-empty line; returns IoError at end of stream.
util::Status NextLine(std::istream& is, std::string* line) {
  while (std::getline(is, *line)) {
    const std::string_view trimmed = util::Trim(*line);
    if (!trimmed.empty()) {
      *line = std::string(trimmed);
      return util::Status::OK();
    }
  }
  return util::Status::IoError("unexpected end of graph stream");
}

util::Result<std::vector<std::string_view>> ExpectFields(
    const std::string& line, size_t min_fields) {
  auto fields = util::Split(line, ' ');
  if (fields.size() < min_fields) {
    return util::Status::Corruption("malformed line: '" + line + "'");
  }
  return fields;
}

}  // namespace

util::Status SaveGraph(const Graph& graph, std::ostream& os) {
  const NetworkSchema& schema = graph.schema();
  os << kMagic << ' ' << kVersion << '\n';
  os << "entity_types " << schema.num_entity_types() << '\n';
  for (size_t t = 0; t < schema.num_entity_types(); ++t) {
    const auto& et = schema.entity_type(static_cast<EntityTypeId>(t));
    os << et.name << ' ' << et.attributes.size() << '\n';
    for (const auto& attr : et.attributes) {
      os << "attr " << attr.name << ' ' << (attr.growable ? 1 : 0) << '\n';
    }
  }
  os << "link_types " << schema.num_link_types() << '\n';
  for (size_t lt = 0; lt < schema.num_link_types(); ++lt) {
    const auto& def = schema.link_type(static_cast<LinkTypeId>(lt));
    os << def.name << ' ' << def.src << ' ' << def.dst << ' '
       << (def.has_strength ? 1 : 0) << ' ' << (def.growable_strength ? 1 : 0)
       << ' ' << (def.allows_self_link ? 1 : 0) << '\n';
  }
  os << "vertices " << graph.num_vertices() << '\n';
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const EntityTypeId t = graph.entity_type(v);
    os << t;
    const size_t num_attrs = graph.num_attributes(t);
    for (AttributeId a = 0; a < num_attrs; ++a) {
      os << ' ' << graph.attribute(v, a);
    }
    os << '\n';
  }
  for (size_t lt = 0; lt < schema.num_link_types(); ++lt) {
    size_t count = 0;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      count += graph.OutDegree(static_cast<LinkTypeId>(lt), v);
    }
    os << "edges " << lt << ' ' << count << '\n';
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      for (const Edge& e :
           graph.OutEdges(static_cast<LinkTypeId>(lt), v)) {
        os << v << ' ' << e.neighbor << ' ' << e.strength << '\n';
      }
    }
  }
  os << "end\n";
  if (!os) return util::Status::IoError("write failure while saving graph");
  return util::Status::OK();
}

util::Status SaveGraphToFile(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return util::Status::IoError("cannot open for write: " + path);
  return SaveGraph(graph, out);
}

util::Result<Graph> LoadGraph(std::istream& is) {
  std::string line;
  HINPRIV_RETURN_IF_ERROR(NextLine(is, &line));
  {
    auto fields = ExpectFields(line, 2);
    if (!fields.ok()) return fields.status();
    if (fields.value()[0] != kMagic) {
      return util::Status::Corruption("bad magic: expected 'hinpriv-graph'");
    }
    auto version = util::ParseInt64(fields.value()[1]);
    if (!version.ok() || version.value() != kVersion) {
      return util::Status::Corruption("unsupported graph format version");
    }
  }

  NetworkSchema schema;
  HINPRIV_RETURN_IF_ERROR(NextLine(is, &line));
  auto header = ExpectFields(line, 2);
  if (!header.ok()) return header.status();
  if (header.value()[0] != "entity_types") {
    return util::Status::Corruption("expected 'entity_types' section");
  }
  auto num_entity_types = util::ParseUint64(header.value()[1]);
  if (!num_entity_types.ok()) return num_entity_types.status();
  for (uint64_t t = 0; t < num_entity_types.value(); ++t) {
    HINPRIV_RETURN_IF_ERROR(NextLine(is, &line));
    auto fields = ExpectFields(line, 2);
    if (!fields.ok()) return fields.status();
    const EntityTypeId et = schema.AddEntityType(std::string(fields.value()[0]));
    auto num_attrs = util::ParseUint64(fields.value()[1]);
    if (!num_attrs.ok()) return num_attrs.status();
    for (uint64_t a = 0; a < num_attrs.value(); ++a) {
      HINPRIV_RETURN_IF_ERROR(NextLine(is, &line));
      auto attr_fields = ExpectFields(line, 3);
      if (!attr_fields.ok()) return attr_fields.status();
      if (attr_fields.value()[0] != "attr") {
        return util::Status::Corruption("expected 'attr' row");
      }
      auto growable = util::ParseUint64(attr_fields.value()[2]);
      if (!growable.ok()) return growable.status();
      schema.AddAttribute(et, std::string(attr_fields.value()[1]),
                          growable.value() != 0);
    }
  }

  HINPRIV_RETURN_IF_ERROR(NextLine(is, &line));
  header = ExpectFields(line, 2);
  if (!header.ok()) return header.status();
  if (header.value()[0] != "link_types") {
    return util::Status::Corruption("expected 'link_types' section");
  }
  auto num_link_types = util::ParseUint64(header.value()[1]);
  if (!num_link_types.ok()) return num_link_types.status();
  for (uint64_t lt = 0; lt < num_link_types.value(); ++lt) {
    HINPRIV_RETURN_IF_ERROR(NextLine(is, &line));
    auto fields = ExpectFields(line, 6);
    if (!fields.ok()) return fields.status();
    auto src = util::ParseUint64(fields.value()[1]);
    auto dst = util::ParseUint64(fields.value()[2]);
    auto has_strength = util::ParseUint64(fields.value()[3]);
    auto growable = util::ParseUint64(fields.value()[4]);
    auto self_link = util::ParseUint64(fields.value()[5]);
    for (const auto* r : {&src, &dst, &has_strength, &growable, &self_link}) {
      if (!r->ok()) return r->status();
    }
    if (src.value() >= schema.num_entity_types() ||
        dst.value() >= schema.num_entity_types()) {
      return util::Status::Corruption("link type endpoint out of range");
    }
    schema.AddLinkType(std::string(fields.value()[0]),
                       static_cast<EntityTypeId>(src.value()),
                       static_cast<EntityTypeId>(dst.value()),
                       has_strength.value() != 0, growable.value() != 0,
                       self_link.value() != 0);
  }
  HINPRIV_RETURN_IF_ERROR(schema.Validate());

  GraphBuilder builder(schema);
  HINPRIV_RETURN_IF_ERROR(NextLine(is, &line));
  header = ExpectFields(line, 2);
  if (!header.ok()) return header.status();
  if (header.value()[0] != "vertices") {
    return util::Status::Corruption("expected 'vertices' section");
  }
  auto num_vertices = util::ParseUint64(header.value()[1]);
  if (!num_vertices.ok()) return num_vertices.status();
  for (uint64_t v = 0; v < num_vertices.value(); ++v) {
    HINPRIV_RETURN_IF_ERROR(NextLine(is, &line));
    auto fields = ExpectFields(line, 1);
    if (!fields.ok()) return fields.status();
    auto etype = util::ParseUint64(fields.value()[0]);
    if (!etype.ok()) return etype.status();
    if (etype.value() >= schema.num_entity_types()) {
      return util::Status::Corruption("vertex entity type out of range");
    }
    const EntityTypeId t = static_cast<EntityTypeId>(etype.value());
    const size_t num_attrs =
        schema.entity_type(t).attributes.size();
    if (fields.value().size() != 1 + num_attrs) {
      return util::Status::Corruption(
          "vertex row has wrong attribute count: '" + line + "'");
    }
    const VertexId id = builder.AddVertex(t);
    for (size_t a = 0; a < num_attrs; ++a) {
      auto value = util::ParseInteger<AttrValue>(fields.value()[1 + a]);
      if (!value.ok()) return value.status();
      HINPRIV_RETURN_IF_ERROR(builder.SetAttribute(
          id, static_cast<AttributeId>(a), value.value()));
    }
  }

  for (uint64_t section = 0; section < schema.num_link_types(); ++section) {
    HINPRIV_RETURN_IF_ERROR(NextLine(is, &line));
    auto fields = ExpectFields(line, 3);
    if (!fields.ok()) return fields.status();
    if (fields.value()[0] != "edges") {
      return util::Status::Corruption("expected 'edges' section");
    }
    auto lt = util::ParseUint64(fields.value()[1]);
    auto count = util::ParseUint64(fields.value()[2]);
    if (!lt.ok()) return lt.status();
    if (!count.ok()) return count.status();
    if (lt.value() >= schema.num_link_types()) {
      return util::Status::Corruption("edge section link type out of range");
    }
    for (uint64_t e = 0; e < count.value(); ++e) {
      HINPRIV_RETURN_IF_ERROR(NextLine(is, &line));
      auto edge_fields = ExpectFields(line, 3);
      if (!edge_fields.ok()) return edge_fields.status();
      auto src = util::ParseUint64(edge_fields.value()[0]);
      auto dst = util::ParseUint64(edge_fields.value()[1]);
      auto strength = util::ParseInteger<Strength>(edge_fields.value()[2]);
      for (const auto* r : {&src, &dst}) {
        if (!r->ok()) return r->status();
      }
      if (!strength.ok()) return strength.status();
      if (src.value() >= num_vertices.value() ||
          dst.value() >= num_vertices.value()) {
        return util::Status::Corruption("edge endpoint out of range");
      }
      HINPRIV_RETURN_IF_ERROR(builder.AddEdge(
          static_cast<VertexId>(src.value()),
          static_cast<VertexId>(dst.value()),
          static_cast<LinkTypeId>(lt.value()), strength.value()));
    }
  }

  HINPRIV_RETURN_IF_ERROR(NextLine(is, &line));
  if (util::Trim(line) != "end") {
    return util::Status::Corruption("missing 'end' terminator");
  }
  return std::move(builder).Build();
}

util::Result<Graph> LoadGraphFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::IoError("cannot open for read: " + path);
  return LoadGraph(in);
}

util::Result<Graph> LoadGraphAuto(const std::string& path,
                                  const SnapshotOptions& options) {
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) return util::Status::IoError("cannot open for read: " + path);
    char magic[8] = {};
    probe.read(magic, sizeof(magic));
    if (probe.gcount() == 8 && std::memcmp(magic, "HINPRIVS", 8) == 0) {
      return LoadGraphSnapshot(path, options);
    }
  }
  return LoadGraphFromFile(path);
}

util::Status SaveGraphAuto(const Graph& graph, const std::string& path) {
  if (path.ends_with(".snap")) return SaveGraphSnapshot(graph, path);
  return SaveGraphToFile(graph, path);
}

}  // namespace hinpriv::hin
