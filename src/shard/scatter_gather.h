#ifndef HINPRIV_SHARD_SCATTER_GATHER_H_
#define HINPRIV_SHARD_SCATTER_GATHER_H_

#include <string>
#include <vector>

#include "hin/graph.h"
#include "service/server.h"
#include "shard/router.h"

namespace hinpriv::shard {

// The coordinator role of a sharded tier (DESIGN.md §12): a
// service::Server built with this handler runs no local candidate scan.
// attack_one is scattered to every shard server (endpoint i = shard i)
// and the verdicts merged into an answer bit-identical to the unsharded
// scan; stats and health fan out to the shards and aggregate them with
// honest per-shard window coverage. Risk and sleep stay with the
// front-end (risk needs only the target graph).
class ScatterGather : public service::Handler {
 public:
  // `halo_depth` is the depth the shard slices were extracted with:
  // attack_one deeper than it is refused INVALID_REQUEST, because beyond
  // the halo shard verdicts would silently diverge from the unsharded
  // scan; < 0 = don't enforce (full-graph shards in tests). `aux` is the
  // full auxiliary graph, borrowed for the totals stats reports; may be
  // null.
  ScatterGather(std::vector<ShardEndpoint> endpoints, int halo_depth,
                const hin::Graph* aux);

  service::Response AttackOne(hin::VertexId target, int max_distance,
                              const util::CancelToken& token) override;
  service::Response ApplyDelta(const std::string& path,
                               const util::CancelToken& token) override;
  void AppendStats(service::JsonValue* payload) override;
  service::HealthState AppendHealth(service::HealthState own,
                                    service::JsonValue* payload) override;

 private:
  ShardRouter router_;
  int halo_depth_;
  const hin::Graph* aux_;
};

}  // namespace hinpriv::shard

#endif  // HINPRIV_SHARD_SCATTER_GATHER_H_
