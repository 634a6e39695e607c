#include "hin/schema_io.h"

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

namespace hinpriv::hin {

namespace {

// Keeps a corrupted length field from driving a large allocation before
// validation can catch it.
constexpr uint64_t kMaxStringLength = 1 << 16;

template <typename T>
void WriteRaw(std::ostream& os, T value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

void WriteString(std::ostream& os, const std::string& s) {
  WriteRaw<uint32_t>(os, static_cast<uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

template <typename T>
util::Status ReadRaw(std::istream& is, T* value) {
  is.read(reinterpret_cast<char*>(value), sizeof(T));
  if (!is) return util::Status::Corruption("unexpected end of schema blob");
  return util::Status::OK();
}

util::Status ReadString(std::istream& is, std::string* s) {
  uint32_t length = 0;
  HINPRIV_RETURN_IF_ERROR(ReadRaw(is, &length));
  if (length > kMaxStringLength) {
    return util::Status::Corruption("string length out of range");
  }
  s->resize(length);
  is.read(s->data(), length);
  if (!is) return util::Status::Corruption("unexpected end of schema blob");
  return util::Status::OK();
}

}  // namespace

util::Status WriteSchemaBinary(std::ostream& os, const NetworkSchema& schema) {
  WriteRaw<uint16_t>(os, static_cast<uint16_t>(schema.num_entity_types()));
  for (size_t t = 0; t < schema.num_entity_types(); ++t) {
    const auto& et = schema.entity_type(static_cast<EntityTypeId>(t));
    WriteString(os, et.name);
    WriteRaw<uint16_t>(os, static_cast<uint16_t>(et.attributes.size()));
    for (const auto& attr : et.attributes) {
      WriteString(os, attr.name);
      WriteRaw<uint8_t>(os, attr.growable ? 1 : 0);
    }
  }
  WriteRaw<uint16_t>(os, static_cast<uint16_t>(schema.num_link_types()));
  for (size_t lt = 0; lt < schema.num_link_types(); ++lt) {
    const auto& def = schema.link_type(static_cast<LinkTypeId>(lt));
    WriteString(os, def.name);
    WriteRaw<uint16_t>(os, def.src);
    WriteRaw<uint16_t>(os, def.dst);
    WriteRaw<uint8_t>(os, def.has_strength ? 1 : 0);
    WriteRaw<uint8_t>(os, def.growable_strength ? 1 : 0);
    WriteRaw<uint8_t>(os, def.allows_self_link ? 1 : 0);
  }
  if (!os) return util::Status::IoError("write failure (schema blob)");
  return util::Status::OK();
}

util::Status ReadSchemaBinary(std::istream& is, NetworkSchema* schema) {
  uint16_t num_entity_types = 0;
  HINPRIV_RETURN_IF_ERROR(ReadRaw(is, &num_entity_types));
  for (uint16_t t = 0; t < num_entity_types; ++t) {
    std::string name;
    HINPRIV_RETURN_IF_ERROR(ReadString(is, &name));
    const EntityTypeId et = schema->AddEntityType(std::move(name));
    uint16_t num_attrs = 0;
    HINPRIV_RETURN_IF_ERROR(ReadRaw(is, &num_attrs));
    for (uint16_t a = 0; a < num_attrs; ++a) {
      std::string attr_name;
      HINPRIV_RETURN_IF_ERROR(ReadString(is, &attr_name));
      uint8_t growable = 0;
      HINPRIV_RETURN_IF_ERROR(ReadRaw(is, &growable));
      schema->AddAttribute(et, std::move(attr_name), growable != 0);
    }
  }
  uint16_t num_link_types = 0;
  HINPRIV_RETURN_IF_ERROR(ReadRaw(is, &num_link_types));
  for (uint16_t lt = 0; lt < num_link_types; ++lt) {
    std::string name;
    HINPRIV_RETURN_IF_ERROR(ReadString(is, &name));
    uint16_t src = 0;
    uint16_t dst = 0;
    uint8_t has_strength = 0;
    uint8_t growable = 0;
    uint8_t self_link = 0;
    HINPRIV_RETURN_IF_ERROR(ReadRaw(is, &src));
    HINPRIV_RETURN_IF_ERROR(ReadRaw(is, &dst));
    HINPRIV_RETURN_IF_ERROR(ReadRaw(is, &has_strength));
    HINPRIV_RETURN_IF_ERROR(ReadRaw(is, &growable));
    HINPRIV_RETURN_IF_ERROR(ReadRaw(is, &self_link));
    if (src >= schema->num_entity_types() ||
        dst >= schema->num_entity_types()) {
      return util::Status::Corruption("link endpoint type out of range");
    }
    schema->AddLinkType(std::move(name), src, dst, has_strength != 0,
                        growable != 0, self_link != 0);
  }
  return util::Status::OK();
}

}  // namespace hinpriv::hin
