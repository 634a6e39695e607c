#ifndef HINPRIV_HIN_IO_H_
#define HINPRIV_HIN_IO_H_

#include <iosfwd>
#include <string>

#include "hin/graph.h"
#include "hin/snapshot.h"
#include "util/status.h"

namespace hinpriv::hin {

// Text serialization of a Graph (schema + vertices + edges), versioned and
// self-describing. The format mirrors the layout of the released t.qq
// files: one profile row per vertex, one interaction row per edge, grouped
// by link type. The loader validates every count, id, and link-type
// endpoint so corrupted or truncated files surface as Status errors, never
// as undefined behaviour.
//
//   hinpriv-graph 1
//   entity_types <count>
//     <name> <num_attributes>
//     attr <name> <growable 0|1>         (x num_attributes)
//   link_types <count>
//     <name> <src> <dst> <has_strength 0|1> <growable 0|1> <self 0|1>
//   vertices <count>
//     <entity_type> <attr_0> ... <attr_k>
//   edges <link_type> <count>
//     <src> <dst> <strength>
//   end

util::Status SaveGraph(const Graph& graph, std::ostream& os);
util::Status SaveGraphToFile(const Graph& graph, const std::string& path);

// Reads `is` in chunks (util::LineReader), so it consumes the stream past
// the "end" terminator, to the end of the chunk it read: the stream must
// hold this one graph, not a graph followed by another payload.
util::Result<Graph> LoadGraph(std::istream& is);
util::Result<Graph> LoadGraphFromFile(const std::string& path);

// The one call that opens a graph file: reads the first 8 bytes and maps
// the file as a snapshot (snapshot.h) on the "HINPRIVS" magic, with
// `options` applied, or parses it as text otherwise. Every consumer of
// `convert` output (CLI subcommands, the attack service, perfbench) goes
// through this so callers never care which format a file is in.
util::Result<Graph> LoadGraphAuto(const std::string& path,
                                  const SnapshotOptions& options = {});

// Companion saver: ".snap" writes the snapshot format, anything else text.
util::Status SaveGraphAuto(const Graph& graph, const std::string& path);

}  // namespace hinpriv::hin

#endif  // HINPRIV_HIN_IO_H_
