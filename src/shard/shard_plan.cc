#include "shard/shard_plan.h"

#include <cstdio>
#include <cstring>

#include "hin/io.h"
#include "hin/subgraph.h"
#include "obs/trace.h"
#include "util/hashing.h"

namespace hinpriv::shard {

namespace {

// Sidecar header: magic, version, halo depth, owned count, total count,
// then `total` little-endian u32 parent ids. Fixed-width fields are
// memcpy'd through this struct, which is packed by construction (all
// members naturally aligned, no padding).
struct ShardMapHeader {
  char magic[8];
  uint32_t version;
  uint32_t halo_depth;
  uint64_t num_owned;
  uint64_t total;
};
static_assert(sizeof(ShardMapHeader) == 32, "sidecar header must be packed");

constexpr char kShardMapMagic[8] = {'H', 'I', 'N', 'P', 'R', 'V', 'M', '1'};

std::string SliceStem(const std::string& prefix, size_t shard,
                      size_t num_shards, int halo_depth) {
  return prefix + "." + std::to_string(shard) + "of" +
         std::to_string(num_shards) + ".d" + std::to_string(halo_depth);
}

}  // namespace

ShardPlan::ShardPlan(size_t num_vertices, ShardPlanOptions options)
    : num_vertices_(num_vertices), options_(options) {
  if (options_.num_shards == 0) options_.num_shards = 1;
}

size_t ShardPlan::ShardOf(hin::VertexId v) const {
  return static_cast<size_t>(
      util::Mix64(static_cast<uint64_t>(v) ^ options_.hash_seed) %
      options_.num_shards);
}

std::vector<hin::VertexId> ShardPlan::OwnedVertices(size_t shard) const {
  std::vector<hin::VertexId> owned;
  if (shard >= options_.num_shards) return owned;
  owned.reserve(num_vertices_ / options_.num_shards + 16);
  for (hin::VertexId v = 0; v < num_vertices_; ++v) {
    if (ShardOf(v) == shard) owned.push_back(v);
  }
  return owned;
}

std::vector<size_t> ShardPlan::OwnedCounts() const {
  std::vector<size_t> counts(options_.num_shards, 0);
  for (hin::VertexId v = 0; v < num_vertices_; ++v) {
    ++counts[ShardOf(v)];
  }
  return counts;
}

util::Result<ShardSlice> ExtractShardSlice(const hin::Graph& aux,
                                           const ShardPlan& plan, size_t shard,
                                           int halo_depth) {
  HINPRIV_SPAN("shard/extract_slice");
  if (shard >= plan.num_shards()) {
    return util::Status::InvalidArgument("shard index out of range");
  }
  if (plan.num_vertices() != aux.num_vertices()) {
    return util::Status::InvalidArgument(
        "shard plan sized for a different graph");
  }
  if (halo_depth < 0) halo_depth = 0;
  const std::vector<hin::VertexId> owned = plan.OwnedVertices(shard);
  auto halo = hin::HaloInducedSubgraph(aux, owned, halo_depth);
  if (!halo.ok()) return halo.status();
  ShardSlice slice{std::move(halo.value().graph),
                   std::move(halo.value().to_parent),
                   halo.value().num_seeds, halo_depth};
  return slice;
}

std::string ShardSlicePath(const std::string& prefix, size_t shard,
                           size_t num_shards, int halo_depth) {
  return SliceStem(prefix, shard, num_shards, halo_depth) + ".hinprivs";
}

std::string ShardMapPath(const std::string& prefix, size_t shard,
                         size_t num_shards, int halo_depth) {
  return SliceStem(prefix, shard, num_shards, halo_depth) + ".shardmap";
}

util::Status SaveShardSlice(const ShardSlice& slice, const std::string& prefix,
                            size_t shard, size_t num_shards) {
  const std::string snap_path =
      ShardSlicePath(prefix, shard, num_shards, slice.halo_depth);
  HINPRIV_RETURN_IF_ERROR(hin::SaveGraphSnapshot(slice.graph, snap_path));

  const std::string map_path =
      ShardMapPath(prefix, shard, num_shards, slice.halo_depth);
  std::FILE* f = std::fopen(map_path.c_str(), "wb");
  if (f == nullptr) {
    return util::Status::IoError("cannot write shard map: " + map_path);
  }
  ShardMapHeader header{};
  std::memcpy(header.magic, kShardMapMagic, sizeof(header.magic));
  header.version = 1;
  header.halo_depth = static_cast<uint32_t>(slice.halo_depth);
  header.num_owned = slice.num_owned;
  header.total = slice.to_parent.size();
  bool ok = std::fwrite(&header, sizeof(header), 1, f) == 1;
  if (ok && !slice.to_parent.empty()) {
    ok = std::fwrite(slice.to_parent.data(), sizeof(hin::VertexId),
                     slice.to_parent.size(), f) == slice.to_parent.size();
  }
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    return util::Status::IoError("short write of shard map: " + map_path);
  }
  return util::Status::OK();
}

util::Result<ShardSlice> LoadShardSlice(const std::string& prefix,
                                        size_t shard, size_t num_shards,
                                        int halo_depth,
                                        const hin::SnapshotOptions& options) {
  HINPRIV_SPAN("shard/load_slice");
  const std::string map_path =
      ShardMapPath(prefix, shard, num_shards, halo_depth);
  std::FILE* f = std::fopen(map_path.c_str(), "rb");
  if (f == nullptr) {
    return util::Status::NotFound("shard map not found: " + map_path);
  }
  ShardMapHeader header{};
  if (std::fread(&header, sizeof(header), 1, f) != 1 ||
      std::memcmp(header.magic, kShardMapMagic, sizeof(header.magic)) != 0 ||
      header.version != 1 ||
      header.halo_depth != static_cast<uint32_t>(halo_depth) ||
      header.num_owned > header.total) {
    std::fclose(f);
    return util::Status::Corruption("malformed shard map header: " + map_path);
  }
  std::vector<hin::VertexId> to_parent(static_cast<size_t>(header.total));
  const bool read_ok =
      to_parent.empty() ||
      std::fread(to_parent.data(), sizeof(hin::VertexId), to_parent.size(),
                 f) == to_parent.size();
  std::fclose(f);
  if (!read_ok) {
    return util::Status::Corruption("truncated shard map: " + map_path);
  }

  auto graph = hin::LoadGraphAuto(
      ShardSlicePath(prefix, shard, num_shards, halo_depth), options);
  if (!graph.ok()) return graph.status();
  if (graph.value().num_vertices() != to_parent.size()) {
    return util::Status::Corruption(
        "shard map and snapshot disagree on vertex count");
  }
  ShardSlice slice{std::move(graph).value(), std::move(to_parent),
                   static_cast<size_t>(header.num_owned), halo_depth};
  return slice;
}

}  // namespace hinpriv::shard
