#include "hin/snapshot.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "hin/schema_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/mapped_file.h"

namespace hinpriv::hin {

namespace {

constexpr char kMagic[8] = {'H', 'I', 'N', 'P', 'R', 'I', 'V', 'S'};
constexpr uint32_t kSnapshotVersion = 1;
// Written natively; a reader on a different-endian host sees the bytes
// reversed and rejects the file instead of misreading every array.
constexpr uint32_t kByteOrderProbe = 0x01020304;
constexpr uint64_t kAlignment = 64;
constexpr uint64_t kMaxSchemaBytes = 1 << 24;

// size_t-backed counts are written as raw uint64 arrays.
static_assert(sizeof(size_t) == 8, "HINPRIVS assumes 64-bit size_t");

struct SnapshotHeader {
  char magic[8];
  uint32_t version;
  uint32_t byte_order;
  uint64_t header_bytes;
  uint64_t file_bytes;
  uint64_t schema_offset;
  uint64_t schema_bytes;
  uint64_t section_table_offset;
  uint64_t section_count;
  uint64_t num_vertices;
  uint64_t num_edges;
  uint8_t reserved[48];
};
static_assert(sizeof(SnapshotHeader) == 128, "snapshot header is 128 bytes");

enum SectionKind : uint32_t {
  kVertexTypes = 1,  // EntityTypeId[num_vertices]
  kDenseIndex = 2,   // uint32[num_vertices]
  kTypeCounts = 3,   // uint64[num_entity_types]
  kCsrOffsets = 4,   // uint64[num_vertices + 1]; a = link type, b = dir
  kCsrEdges = 5,     // Edge[]; a = link type, b = dir (0 = out, 1 = in)
  kAttrColumn = 6,   // AttrValue[type_counts[a]]; a = entity type, b = attr
};

struct SectionEntry {
  uint32_t kind;
  uint32_t a;
  uint32_t b;
  uint32_t reserved;
  uint64_t offset;
  uint64_t bytes;
};
static_assert(sizeof(SectionEntry) == 32, "section entry is 32 bytes");

uint64_t AlignUp(uint64_t v) {
  return (v + kAlignment - 1) & ~(kAlignment - 1);
}

struct SnapshotMetrics {
  obs::Counter* loads;
  obs::Counter* bytes_mapped;
  obs::Histogram* load_us;
};

const SnapshotMetrics& GlobalSnapshotMetrics() {
  static const SnapshotMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return SnapshotMetrics{
        registry.GetCounter("hin/snapshot_loads"),
        registry.GetCounter("hin/snapshot_bytes_mapped"),
        registry.GetHistogram("hin/snapshot_load_us"),
    };
  }();
  return metrics;
}

template <typename T>
std::span<const T> SectionSpan(const uint8_t* base, const SectionEntry& e) {
  return {reinterpret_cast<const T*>(base + e.offset), e.bytes / sizeof(T)};
}

util::Status CorruptSnapshot(const std::string& what) {
  return util::Status::Corruption("snapshot: " + what);
}

}  // namespace

// Friend of Graph: packages the private span plumbing for both the writer
// (which needs the whole backing arrays, not per-vertex accessor slices)
// and the loader (which constructs a Graph over the mapping).
class SnapshotReader {
 public:
  static util::Status Save(const Graph& graph, const std::string& path);
  static util::Result<Graph> Load(const std::string& path,
                                  const SnapshotOptions& options);
};

util::Status SnapshotReader::Save(const Graph& graph,
                                  const std::string& path) {
  const NetworkSchema& schema = graph.schema();
  std::ostringstream schema_blob_stream(std::ios::binary);
  HINPRIV_RETURN_IF_ERROR(WriteSchemaBinary(schema_blob_stream, schema));
  const std::string schema_blob = schema_blob_stream.str();

  const uint64_t n = graph.num_vertices();
  const size_t num_types = schema.num_entity_types();
  const size_t num_links = schema.num_link_types();
  std::vector<uint64_t> type_counts(graph.type_counts_.begin(),
                                    graph.type_counts_.end());

  // Each section's payload is written by a callback, so the CSR sections
  // can go through the accessors: a graph grown by deltas saves exactly as
  // the graph Build() makes from the union multiset would.
  using Writer = std::function<void(std::ostream&)>;
  struct PendingSection {
    SectionEntry entry;
    Writer write;
  };
  std::vector<PendingSection> sections;
  auto add = [&sections](uint32_t kind, uint32_t a, uint32_t b,
                         uint64_t bytes, Writer write) {
    sections.push_back({SectionEntry{kind, a, b, 0, 0, bytes}, std::move(write)});
  };
  auto add_array = [&add](uint32_t kind, uint32_t a, uint32_t b,
                          const void* data, uint64_t bytes) {
    add(kind, a, b, bytes, [data, bytes](std::ostream& out) {
      out.write(static_cast<const char*>(data),
                static_cast<std::streamsize>(bytes));
    });
  };
  add_array(kVertexTypes, 0, 0, graph.vtype_.data(), n * sizeof(EntityTypeId));
  add_array(kDenseIndex, 0, 0, graph.dense_idx_.data(), n * sizeof(uint32_t));
  add_array(kTypeCounts, 0, 0, type_counts.data(),
            type_counts.size() * sizeof(uint64_t));
  for (size_t l = 0; l < num_links; ++l) {
    const auto lt = static_cast<LinkTypeId>(l);
    for (uint32_t dir = 0; dir < 2; ++dir) {
      const auto run = [&graph, lt, dir](VertexId v) {
        return dir == 0 ? graph.OutEdges(lt, v) : graph.InEdges(lt, v);
      };
      uint64_t num_edges_here = 0;
      for (VertexId v = 0; v < n; ++v) num_edges_here += run(v).size();
      add(kCsrOffsets, lt, dir, (n + 1) * sizeof(uint64_t),
          [run, n](std::ostream& out) {
            std::vector<uint64_t> offsets(n + 1, 0);
            for (VertexId v = 0; v < n; ++v) {
              offsets[v + 1] = offsets[v] + run(v).size();
            }
            out.write(reinterpret_cast<const char*>(offsets.data()),
                      static_cast<std::streamsize>(offsets.size() *
                                                   sizeof(uint64_t)));
          });
      add(kCsrEdges, lt, dir, num_edges_here * sizeof(Edge),
          [run, n](std::ostream& out) {
            // Runs adjacent in memory (the CSR's) go out in one write; a
            // patched run is a write of its own.
            const Edge* begin = nullptr;
            const Edge* end = nullptr;
            auto flush = [&] {
              out.write(reinterpret_cast<const char*>(begin),
                        static_cast<std::streamsize>((end - begin) *
                                                     sizeof(Edge)));
            };
            for (VertexId v = 0; v < n; ++v) {
              const std::span<const Edge> edges = run(v);
              if (edges.empty()) continue;
              if (edges.data() != end) {
                flush();
                begin = edges.data();
              }
              end = edges.data() + edges.size();
            }
            flush();
          });
    }
  }
  for (size_t t = 0; t < num_types; ++t) {
    const size_t num_attrs = schema.entity_type(
        static_cast<EntityTypeId>(t)).attributes.size();
    for (size_t a = 0; a < num_attrs; ++a) {
      const auto column = graph.attrs_[t][a];
      add_array(kAttrColumn, static_cast<uint32_t>(t),
                static_cast<uint32_t>(a), column.data(),
                column.size() * sizeof(AttrValue));
    }
  }

  SnapshotHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kSnapshotVersion;
  header.byte_order = kByteOrderProbe;
  header.header_bytes = sizeof(SnapshotHeader);
  header.schema_offset = sizeof(SnapshotHeader);
  header.schema_bytes = schema_blob.size();
  header.section_table_offset =
      AlignUp(header.schema_offset + header.schema_bytes);
  header.section_count = sections.size();
  header.num_vertices = n;
  header.num_edges = graph.num_edges_;
  uint64_t pos =
      header.section_table_offset + sections.size() * sizeof(SectionEntry);
  for (PendingSection& section : sections) {
    section.entry.offset = AlignUp(pos);
    pos = section.entry.offset + section.entry.bytes;
  }
  header.file_bytes = pos;

  // Write-then-rename: a live MAP_SHARED mapping of `path` must never see
  // its bytes change, and a failed write must not leave a torn file there.
  static std::atomic<uint64_t> next_temp{0};
  const std::string temp_path = path + ".tmp" + std::to_string(::getpid()) +
                                "." + std::to_string(next_temp++);
  std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
  if (!out) return util::Status::IoError("cannot open for write: " + temp_path);
  uint64_t written = 0;
  auto pad_to = [&out, &written](uint64_t target) {
    static constexpr char kZeros[kAlignment] = {};
    while (written < target) {
      const uint64_t chunk =
          std::min<uint64_t>(target - written, sizeof(kZeros));
      out.write(kZeros, static_cast<std::streamsize>(chunk));
      written += chunk;
    }
  };
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  written += sizeof(header);
  out.write(schema_blob.data(),
            static_cast<std::streamsize>(schema_blob.size()));
  written += schema_blob.size();
  pad_to(header.section_table_offset);
  for (const PendingSection& section : sections) {
    out.write(reinterpret_cast<const char*>(&section.entry),
              sizeof(SectionEntry));
    written += sizeof(SectionEntry);
  }
  for (const PendingSection& section : sections) {
    pad_to(section.entry.offset);
    if (section.entry.bytes > 0) section.write(out);
    written += section.entry.bytes;
  }
  out.close();  // the final flush can fail too
  if (!out) {
    std::remove(temp_path.c_str());
    return util::Status::IoError("write failure (snapshot): " + path);
  }
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(temp_path.c_str());
    return util::Status::IoError("cannot rename snapshot into place: " + path +
                                 ": " + std::strerror(err));
  }
  return util::Status::OK();
}

util::Result<Graph> SnapshotReader::Load(const std::string& path,
                                         const SnapshotOptions& options) {
  HINPRIV_SPAN("hin/snapshot_load");
  const auto start = std::chrono::steady_clock::now();

  auto mapped = [&]() -> util::Result<util::MappedFile> {
    HINPRIV_SPAN("hin/snapshot_map");
    return util::MappedFile::Open(path);
  }();
  if (!mapped.ok()) return mapped.status();
  auto file = std::make_shared<util::MappedFile>(std::move(mapped).value());
  const uint8_t* base = file->data();
  const uint64_t file_bytes = file->size();

  HINPRIV_SPAN("hin/snapshot_validate");
  if (file_bytes < sizeof(SnapshotHeader)) {
    return CorruptSnapshot("file shorter than header");
  }
  SnapshotHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return CorruptSnapshot("bad magic");
  }
  if (header.version != kSnapshotVersion) {
    return CorruptSnapshot("unsupported version");
  }
  if (header.byte_order != kByteOrderProbe) {
    return CorruptSnapshot("byte order mismatch (foreign-endian snapshot)");
  }
  if (header.header_bytes != sizeof(SnapshotHeader)) {
    return CorruptSnapshot("unexpected header size");
  }
  if (header.file_bytes != file_bytes) {
    return CorruptSnapshot("recorded file size does not match actual size");
  }
  if (header.schema_offset != sizeof(SnapshotHeader) ||
      header.schema_bytes > kMaxSchemaBytes ||
      header.schema_bytes > file_bytes - header.schema_offset) {
    return CorruptSnapshot("schema blob out of bounds");
  }
  const uint64_t n = header.num_vertices;
  if (n >= kInvalidVertex) {
    return CorruptSnapshot("vertex count out of range");
  }

  NetworkSchema schema;
  {
    std::istringstream blob(
        std::string(reinterpret_cast<const char*>(base + header.schema_offset),
                    header.schema_bytes),
        std::ios::binary);
    HINPRIV_RETURN_IF_ERROR(ReadSchemaBinary(blob, &schema));
    HINPRIV_RETURN_IF_ERROR(schema.Validate());
  }
  const size_t num_types = schema.num_entity_types();
  const size_t num_links = schema.num_link_types();
  size_t total_attrs = 0;
  for (size_t t = 0; t < num_types; ++t) {
    total_attrs +=
        schema.entity_type(static_cast<EntityTypeId>(t)).attributes.size();
  }
  const uint64_t expected_sections = 3 + 4 * num_links + total_attrs;
  if (header.section_count != expected_sections) {
    return CorruptSnapshot("section count does not match schema");
  }
  if (header.section_table_offset % kAlignment != 0 ||
      header.section_table_offset < sizeof(SnapshotHeader) ||
      header.section_table_offset > file_bytes ||
      expected_sections * sizeof(SectionEntry) >
          file_bytes - header.section_table_offset) {
    return CorruptSnapshot("section table out of bounds");
  }

  // Slot every entry by (kind, a, b); duplicates and unknown kinds reject.
  const SectionEntry* table = reinterpret_cast<const SectionEntry*>(
      base + header.section_table_offset);
  const SectionEntry* vtype_entry = nullptr;
  const SectionEntry* dense_entry = nullptr;
  const SectionEntry* counts_entry = nullptr;
  std::vector<std::array<const SectionEntry*, 2>> csr_offsets(num_links,
                                                              {nullptr});
  std::vector<std::array<const SectionEntry*, 2>> csr_edges(num_links,
                                                            {nullptr});
  std::vector<std::vector<const SectionEntry*>> attr_entries(num_types);
  for (size_t t = 0; t < num_types; ++t) {
    attr_entries[t].assign(
        schema.entity_type(static_cast<EntityTypeId>(t)).attributes.size(),
        nullptr);
  }
  for (uint64_t i = 0; i < header.section_count; ++i) {
    const SectionEntry& e = table[i];
    if (e.offset % kAlignment != 0 || e.offset > file_bytes ||
        e.bytes > file_bytes - e.offset) {
      return CorruptSnapshot("section bounds exceed file");
    }
    auto claim = [&](const SectionEntry** slot) -> util::Status {
      if (*slot != nullptr) return CorruptSnapshot("duplicate section");
      *slot = &e;
      return util::Status::OK();
    };
    switch (e.kind) {
      case kVertexTypes:
        HINPRIV_RETURN_IF_ERROR(claim(&vtype_entry));
        break;
      case kDenseIndex:
        HINPRIV_RETURN_IF_ERROR(claim(&dense_entry));
        break;
      case kTypeCounts:
        HINPRIV_RETURN_IF_ERROR(claim(&counts_entry));
        break;
      case kCsrOffsets:
      case kCsrEdges: {
        if (e.a >= num_links || e.b >= 2) {
          return CorruptSnapshot("CSR section id out of range");
        }
        auto& slots = e.kind == kCsrOffsets ? csr_offsets : csr_edges;
        HINPRIV_RETURN_IF_ERROR(claim(&slots[e.a][e.b]));
        break;
      }
      case kAttrColumn:
        if (e.a >= num_types || e.b >= attr_entries[e.a].size()) {
          return CorruptSnapshot("attribute section id out of range");
        }
        HINPRIV_RETURN_IF_ERROR(claim(&attr_entries[e.a][e.b]));
        break;
      default:
        return CorruptSnapshot("unknown section kind");
    }
  }
  // Exact section count + no duplicates means every slot is filled, but be
  // explicit: a missing slot here would hand out a null-backed span.
  if (vtype_entry == nullptr || dense_entry == nullptr ||
      counts_entry == nullptr) {
    return CorruptSnapshot("missing core section");
  }
  for (size_t lt = 0; lt < num_links; ++lt) {
    for (int dir = 0; dir < 2; ++dir) {
      if (csr_offsets[lt][dir] == nullptr || csr_edges[lt][dir] == nullptr) {
        return CorruptSnapshot("missing CSR section");
      }
    }
  }
  for (const auto& columns : attr_entries) {
    for (const SectionEntry* entry : columns) {
      if (entry == nullptr) return CorruptSnapshot("missing attribute column");
    }
  }

  if (vtype_entry->bytes != n * sizeof(EntityTypeId)) {
    return CorruptSnapshot("vertex type column size mismatch");
  }
  if (dense_entry->bytes != n * sizeof(uint32_t)) {
    return CorruptSnapshot("dense index column size mismatch");
  }
  if (counts_entry->bytes != num_types * sizeof(uint64_t)) {
    return CorruptSnapshot("type count section size mismatch");
  }
  const auto counts = SectionSpan<uint64_t>(base, *counts_entry);
  uint64_t counted = 0;
  for (uint64_t c : counts) {
    if (c > n) return CorruptSnapshot("type count exceeds vertex count");
    counted += c;
  }
  if (counted != n) {
    return CorruptSnapshot("type counts do not sum to vertex count");
  }
  for (size_t t = 0; t < num_types; ++t) {
    for (size_t a = 0; a < attr_entries[t].size(); ++a) {
      if (attr_entries[t][a]->bytes != counts[t] * sizeof(AttrValue)) {
        return CorruptSnapshot("attribute column size mismatch");
      }
    }
  }

  // One pass proves vtype values are in range and the dense index is
  // canonical (the running per-type ordinal in vertex-id order), which is
  // exactly the invariant attribute() indexing relies on.
  const auto vtype = SectionSpan<EntityTypeId>(base, *vtype_entry);
  const auto dense = SectionSpan<uint32_t>(base, *dense_entry);
  {
    std::vector<uint64_t> running(num_types, 0);
    for (uint64_t v = 0; v < n; ++v) {
      if (vtype[v] >= num_types) {
        return CorruptSnapshot("vertex entity type out of range");
      }
      if (dense[v] != running[vtype[v]]++) {
        return CorruptSnapshot("dense index column is not canonical");
      }
    }
    for (size_t t = 0; t < num_types; ++t) {
      if (running[t] != counts[t]) {
        return CorruptSnapshot("dense index totals disagree with type counts");
      }
    }
  }

  // CSR structure: offsets are monotone, start at 0, and terminate exactly
  // at the edge section's element count — after this every span OutEdges /
  // InEdges can produce is inside the mapping, whatever the edge payload
  // contains.
  uint64_t total_out_edges = 0;
  for (size_t lt = 0; lt < num_links; ++lt) {
    for (int dir = 0; dir < 2; ++dir) {
      const SectionEntry& off_entry = *csr_offsets[lt][dir];
      const SectionEntry& edge_entry = *csr_edges[lt][dir];
      if (off_entry.bytes != (n + 1) * sizeof(uint64_t)) {
        return CorruptSnapshot("CSR offsets size mismatch");
      }
      if (edge_entry.bytes % sizeof(Edge) != 0) {
        return CorruptSnapshot("CSR edge section size not a multiple of Edge");
      }
      const auto offsets = SectionSpan<uint64_t>(base, off_entry);
      const uint64_t num_edges_here = edge_entry.bytes / sizeof(Edge);
      if (offsets[0] != 0) return CorruptSnapshot("CSR offsets not 0-based");
      for (uint64_t v = 0; v < n; ++v) {
        if (offsets[v + 1] < offsets[v]) {
          return CorruptSnapshot("CSR offsets not monotone");
        }
      }
      if (offsets[n] != num_edges_here) {
        return CorruptSnapshot("CSR offsets disagree with edge section size");
      }
      if (dir == 0) total_out_edges += num_edges_here;
    }
    if (csr_edges[lt][0]->bytes != csr_edges[lt][1]->bytes) {
      return CorruptSnapshot("out/in edge totals disagree");
    }
  }
  if (total_out_edges != header.num_edges) {
    return CorruptSnapshot("edge total disagrees with header");
  }

  if (options.verify_edges) {
    for (size_t lt = 0; lt < num_links; ++lt) {
      for (int dir = 0; dir < 2; ++dir) {
        const auto offsets = SectionSpan<uint64_t>(base, *csr_offsets[lt][dir]);
        const auto edges = SectionSpan<Edge>(base, *csr_edges[lt][dir]);
        for (uint64_t v = 0; v < n; ++v) {
          VertexId prev = 0;
          for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
            const Edge& e = edges[i];
            if (e.neighbor >= n) {
              return CorruptSnapshot("edge neighbor out of range");
            }
            if (i > offsets[v] && e.neighbor <= prev) {
              return CorruptSnapshot("adjacency list not strictly sorted");
            }
            if (e.strength == 0) {
              return CorruptSnapshot("zero edge strength");
            }
            prev = e.neighbor;
          }
        }
      }
    }
  }

  Graph g;
  g.schema_ = std::move(schema);
  g.vtype_ = vtype;
  g.dense_idx_ = dense;
  g.type_counts_.assign(counts.begin(), counts.end());
  g.attrs_.resize(num_types);
  for (size_t t = 0; t < num_types; ++t) {
    g.attrs_[t].resize(attr_entries[t].size());
    for (size_t a = 0; a < attr_entries[t].size(); ++a) {
      g.attrs_[t][a] = SectionSpan<AttrValue>(base, *attr_entries[t][a]);
    }
  }
  g.out_.resize(num_links);
  g.in_.resize(num_links);
  for (size_t lt = 0; lt < num_links; ++lt) {
    g.out_[lt] = Graph::CsrView{
        SectionSpan<uint64_t>(base, *csr_offsets[lt][0]),
        SectionSpan<Edge>(base, *csr_edges[lt][0]), {}, {}};
    g.in_[lt] = Graph::CsrView{
        SectionSpan<uint64_t>(base, *csr_offsets[lt][1]),
        SectionSpan<Edge>(base, *csr_edges[lt][1]), {}, {}};
  }
  g.num_edges_ = header.num_edges;
  g.mapped_ = true;

  const SnapshotMetrics& metrics = GlobalSnapshotMetrics();
  metrics.loads->Increment();
  metrics.bytes_mapped->Add(file_bytes);
  metrics.load_us->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  g.arena_ = std::move(file);
  return g;
}

util::Status SaveGraphSnapshot(const Graph& graph, const std::string& path) {
  return SnapshotReader::Save(graph, path);
}

util::Result<Graph> LoadGraphSnapshot(const std::string& path,
                                      const SnapshotOptions& options) {
  return SnapshotReader::Load(path, options);
}

}  // namespace hinpriv::hin
