#ifndef HINPRIV_HIN_SNAPSHOT_H_
#define HINPRIV_HIN_SNAPSHOT_H_

#include <string>

#include "hin/graph.h"
#include "util/status.h"

namespace hinpriv::hin {

// HINPRIVS snapshot: a versioned, 64-byte-aligned on-disk image of a Graph
// laid out so the file can be mmap'd and used in place — the loaded Graph's
// CSR and attribute spans point straight into the mapping, no
// deserialization, no per-element copies. Warm start is O(validation)
// instead of O(V + E), and service replicas mapping the same snapshot share
// its page-cache pages.
//
// Layout (all integers little-endian, fixed-width):
//
//   [0, 128)   SnapshotHeader: magic "HINPRIVS", version, byte-order probe,
//              file size, schema blob location, section table location,
//              vertex/edge totals.
//   [128, ..)  schema blob (schema_io.h codec), unaligned.
//   aligned    section table: SectionEntry[section_count], each describing
//              one typed array with its byte offset and length.
//   aligned    section payloads, each 64-byte aligned:
//                kVertexTypes  EntityTypeId[n]      per-vertex entity type
//                kDenseIndex   uint32[n]            per-vertex dense index
//                kTypeCounts   uint64[T]            vertices per entity type
//                kCsrOffsets   uint64[n + 1]        (a = link type, b = dir)
//                kCsrEdges     Edge[...]            (a = link type, b = dir)
//                kAttrColumn   AttrValue[counts[a]] (a = entity, b = attr)
//
// Versioning: readers accept exactly kSnapshotVersion; any layout change
// bumps it. The byte-order probe rejects snapshots written on a
// different-endian host (the payload is raw native arrays).
//
// Validation: every header field, section bound, alignment, count, and the
// full CSR offset arrays (monotone, 0-based, consistent with the edge
// section sizes) are checked against the actual file size BEFORE any
// mapping-derived span is handed out. Edge payloads are NOT scanned by
// default — the validated offsets already bound every span the accessors
// can produce, and scanning would fault in all pages, defeating lazy
// warmstart. SnapshotOptions::verify_edges opts into the O(E) payload scan
// (neighbor ranges, per-vertex sort order, nonzero strengths).

struct SnapshotOptions {
  // Also validate edge payloads (O(E), faults in the edge sections).
  bool verify_edges = false;
};

// Writes `graph` as a HINPRIVS snapshot at `path`. The bytes go to a
// temporary file in the same directory that is renamed over `path` only
// once every byte is flushed, so a process that still maps the old file
// keeps reading the old graph, and a failed write leaves `path` untouched.
util::Status SaveGraphSnapshot(const Graph& graph, const std::string& path);

// Maps a HINPRIVS snapshot and returns a Graph whose storage is the
// mapping itself (Graph::is_mapped() == true). The mapping lives exactly
// as long as the Graph (and any Graphs moved from it). Callers outside
// the format's own tests open files through hin::LoadGraphAuto (io.h).
util::Result<Graph> LoadGraphSnapshot(const std::string& path,
                                      const SnapshotOptions& options = {});

}  // namespace hinpriv::hin

#endif  // HINPRIV_HIN_SNAPSHOT_H_
