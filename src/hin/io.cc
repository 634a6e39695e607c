#include "hin/io.h"

#include <cstring>
#include <fstream>
#include <string_view>
#include <vector>

#include "hin/graph_builder.h"
#include "util/line_reader.h"
#include "util/string_util.h"

namespace hinpriv::hin {

namespace {

constexpr char kMagic[] = "hinpriv-graph";
constexpr int kVersion = 1;

// An edge row "<src> <dst> <strength>" off the fast path (extra fields,
// '+' signs, junk), parsed field by field for the row's exact Status.
util::Status ParseEdgeRow(util::LineReader* reader, uint64_t* src,
                          uint64_t* dst, Strength* strength) {
  HINPRIV_RETURN_IF_ERROR(reader->Split(3));
  const std::vector<std::string_view>& fields = reader->fields();
  auto src_field = util::ParseUint64(fields[0]);
  auto dst_field = util::ParseUint64(fields[1]);
  auto strength_field = util::ParseInteger<Strength>(fields[2]);
  if (!src_field.ok()) return src_field.status();
  if (!dst_field.ok()) return dst_field.status();
  if (!strength_field.ok()) return strength_field.status();
  *src = src_field.value();
  *dst = dst_field.value();
  *strength = strength_field.value();
  return util::Status::OK();
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
  util::LineReader reader(is, "graph", &util::Status::IoError);
  const std::vector<std::string_view>& fields = reader.fields();
  HINPRIV_RETURN_IF_ERROR(reader.NextRow(2));
  if (fields[0] != kMagic) {
    return util::Status::Corruption("bad magic: expected 'hinpriv-graph'");
  }
  {
    auto version = util::ParseInt64(fields[1]);
    if (!version.ok() || version.value() != kVersion) {
      return util::Status::Corruption("unsupported graph format version");
    }
  }

  NetworkSchema schema;
  HINPRIV_RETURN_IF_ERROR(reader.NextRow(2));
  if (fields[0] != "entity_types") {
    return util::Status::Corruption("expected 'entity_types' section");
  }
  auto num_entity_types = util::ParseUint64(fields[1]);
  if (!num_entity_types.ok()) return num_entity_types.status();
  for (uint64_t t = 0; t < num_entity_types.value(); ++t) {
    HINPRIV_RETURN_IF_ERROR(reader.NextRow(2));
    const EntityTypeId et = schema.AddEntityType(std::string(fields[0]));
    auto num_attrs = util::ParseUint64(fields[1]);
    if (!num_attrs.ok()) return num_attrs.status();
    for (uint64_t a = 0; a < num_attrs.value(); ++a) {
      HINPRIV_RETURN_IF_ERROR(reader.NextRow(3));
      if (fields[0] != "attr") {
        return util::Status::Corruption("expected 'attr' row");
      }
      auto growable = util::ParseUint64(fields[2]);
      if (!growable.ok()) return growable.status();
      schema.AddAttribute(et, std::string(fields[1]), growable.value() != 0);
    }
  }

  HINPRIV_RETURN_IF_ERROR(reader.NextRow(2));
  if (fields[0] != "link_types") {
    return util::Status::Corruption("expected 'link_types' section");
  }
  auto num_link_types = util::ParseUint64(fields[1]);
  if (!num_link_types.ok()) return num_link_types.status();
  for (uint64_t lt = 0; lt < num_link_types.value(); ++lt) {
    HINPRIV_RETURN_IF_ERROR(reader.NextRow(6));
    auto src = util::ParseUint64(fields[1]);
    auto dst = util::ParseUint64(fields[2]);
    auto has_strength = util::ParseUint64(fields[3]);
    auto growable = util::ParseUint64(fields[4]);
    auto self_link = util::ParseUint64(fields[5]);
    for (const auto* r : {&src, &dst, &has_strength, &growable, &self_link}) {
      if (!r->ok()) return r->status();
    }
    if (src.value() >= schema.num_entity_types() ||
        dst.value() >= schema.num_entity_types()) {
      return util::Status::Corruption("link type endpoint out of range");
    }
    schema.AddLinkType(std::string(fields[0]),
                       static_cast<EntityTypeId>(src.value()),
                       static_cast<EntityTypeId>(dst.value()),
                       has_strength.value() != 0, growable.value() != 0,
                       self_link.value() != 0);
  }
  HINPRIV_RETURN_IF_ERROR(schema.Validate());

  GraphBuilder builder(schema);
  HINPRIV_RETURN_IF_ERROR(reader.NextRow(2));
  if (fields[0] != "vertices") {
    return util::Status::Corruption("expected 'vertices' section");
  }
  auto num_vertices = util::ParseUint64(fields[1]);
  if (!num_vertices.ok()) return num_vertices.status();
  for (uint64_t v = 0; v < num_vertices.value(); ++v) {
    HINPRIV_RETURN_IF_ERROR(reader.NextRow(1));
    auto etype = util::ParseUint64(fields[0]);
    if (!etype.ok()) return etype.status();
    if (etype.value() >= schema.num_entity_types()) {
      return util::Status::Corruption("vertex entity type out of range");
    }
    const EntityTypeId t = static_cast<EntityTypeId>(etype.value());
    const size_t num_attrs = schema.entity_type(t).attributes.size();
    if (fields.size() != 1 + num_attrs) {
      return util::Status::Corruption(
          "vertex row has wrong attribute count: '" +
          std::string(reader.line()) + "'");
    }
    const VertexId id = builder.AddVertex(t);
    for (size_t a = 0; a < num_attrs; ++a) {
      auto value = util::ParseInteger<AttrValue>(fields[1 + a]);
      if (!value.ok()) return value.status();
      HINPRIV_RETURN_IF_ERROR(builder.SetAttribute(
          id, static_cast<AttributeId>(a), value.value()));
    }
  }

  for (uint64_t section = 0; section < schema.num_link_types(); ++section) {
    HINPRIV_RETURN_IF_ERROR(reader.NextRow(3));
    if (fields[0] != "edges") {
      return util::Status::Corruption("expected 'edges' section");
    }
    auto lt = util::ParseUint64(fields[1]);
    auto count = util::ParseUint64(fields[2]);
    if (!lt.ok()) return lt.status();
    if (!count.ok()) return count.status();
    if (lt.value() >= schema.num_link_types()) {
      return util::Status::Corruption("edge section link type out of range");
    }
    const LinkTypeId link = static_cast<LinkTypeId>(lt.value());
    for (uint64_t e = 0; e < count.value(); ++e) {
      HINPRIV_RETURN_IF_ERROR(reader.NextLine());
      uint64_t src = 0;
      uint64_t dst = 0;
      Strength strength = 0;
      if (!reader.ParsePlain(&src, &dst, &strength)) {
        HINPRIV_RETURN_IF_ERROR(ParseEdgeRow(&reader, &src, &dst, &strength));
      }
      if (src >= num_vertices.value() || dst >= num_vertices.value()) {
        return util::Status::Corruption("edge endpoint out of range");
      }
      HINPRIV_RETURN_IF_ERROR(builder.AddEdge(static_cast<VertexId>(src),
                                              static_cast<VertexId>(dst),
                                              link, strength));
    }
  }

  HINPRIV_RETURN_IF_ERROR(reader.NextLine());
  if (reader.line() != "end") {
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
