#ifndef HINPRIV_SHARD_TIER_H_
#define HINPRIV_SHARD_TIER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hin/graph.h"
#include "hin/snapshot.h"
#include "service/server.h"
#include "shard/shard_plan.h"
#include "util/status.h"

namespace hinpriv::shard {

// Assembly of a complete in-process scatter-gather tier: N local-scan
// shard servers, each owning its slice of the auxiliary graph (own
// CandidateIndex, MatchCache, executor pool), fronted by
// one coordinator — a server with the ScatterGather handler — that
// scatters attack_one over the loopback wire protocol and merges the
// verdicts bit-identically to the unsharded scan.
struct ShardTierConfig {
  size_t num_shards = 2;
  // Halo depth extracted around each shard's owned vertices; the tier
  // serves attack_one up to max_distance == halo_depth bit-identically
  // and the coordinator rejects deeper requests (INVALID_REQUEST).
  int halo_depth = 1;
  uint64_t hash_seed = ShardPlanOptions{}.hash_seed;
  // When nonempty, slices persist as <prefix>.<i>ofN.d<halo>.hinprivs
  // snapshots (plus .shardmap sidecars) and each shard worker mmaps only
  // its slice through the arena-backed snapshot path; missing slices are
  // extracted and saved first. Empty = extract in memory.
  std::string slice_prefix;
  hin::SnapshotOptions snapshot;
  // Template for every shard server. Host/port are overridden (loopback,
  // ephemeral), as are dehin.candidate_limit, aux_id_map and metric_shard;
  // everything else (num_workers, queue bounds, deadlines, match options)
  // applies per shard.
  service::ServerConfig shard_server;
  // The coordinator's config; its host/port are the tier's public
  // endpoint. Its local-scan fields (dehin, mutable_aux, aux_id_map) are
  // unused.
  service::ServerConfig coordinator;
};

class ShardTier {
 public:
  // Both graphs are borrowed and must outlive the tier. `aux` is the full
  // auxiliary graph the slices are cut from (only needed at Start() when
  // slices are extracted rather than loaded, but the coordinator also
  // reports its totals in stats).
  ShardTier(const hin::Graph* target, const hin::Graph* aux,
            ShardTierConfig config);
  ~ShardTier();  // implies Shutdown()

  ShardTier(const ShardTier&) = delete;
  ShardTier& operator=(const ShardTier&) = delete;

  // Builds the plan, extracts or loads every slice, starts the shard
  // servers, then the coordinator wired to their ports.
  util::Status Start();

  // Coordinator drains first (it stops referencing the shards), then the
  // shards. Idempotent.
  void Shutdown();

  // The tier's public endpoint (the coordinator).
  uint16_t port() const;
  service::Server* coordinator() { return coordinator_.get(); }

  size_t num_shards() const { return config_.num_shards; }
  const std::vector<uint16_t>& shard_ports() const { return shard_ports_; }
  // Owned-vertex count per shard (balance observability).
  const std::vector<size_t>& owned_counts() const { return owned_counts_; }

 private:
  const hin::Graph* target_;
  const hin::Graph* aux_;
  ShardTierConfig config_;

  // Stable storage: shard servers hold pointers into these slices, so the
  // vector is sized once at Start() and never touched again.
  std::vector<ShardSlice> slices_;
  std::vector<std::unique_ptr<service::Server>> shard_servers_;
  std::unique_ptr<service::Server> coordinator_;
  std::vector<uint16_t> shard_ports_;
  std::vector<size_t> owned_counts_;
  bool started_ = false;
};

}  // namespace hinpriv::shard

#endif  // HINPRIV_SHARD_TIER_H_
