#ifndef HINPRIV_HIN_SCHEMA_IO_H_
#define HINPRIV_HIN_SCHEMA_IO_H_

#include <iosfwd>

#include "hin/schema.h"
#include "util/status.h"

namespace hinpriv::hin {

// Binary codec for NetworkSchema, the schema blob inside HINPRIVS
// snapshots (snapshot.cc):
//
//   u16 num_entity_types
//     (u32-length string name, u16 num_attrs,
//        (string name, u8 growable) x num_attrs) x num_entity_types
//   u16 num_link_types
//     (string name, u16 src, u16 dst, u8 has_strength, u8 growable,
//      u8 self_link) x num_link_types
//
// The reader validates every count and endpoint id but does NOT call
// NetworkSchema::Validate(); callers do that once the full container
// format has been checked.
util::Status WriteSchemaBinary(std::ostream& os, const NetworkSchema& schema);
util::Status ReadSchemaBinary(std::istream& is, NetworkSchema* schema);

}  // namespace hinpriv::hin

#endif  // HINPRIV_HIN_SCHEMA_IO_H_
