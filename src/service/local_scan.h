#ifndef HINPRIV_SERVICE_LOCAL_SCAN_H_
#define HINPRIV_SERVICE_LOCAL_SCAN_H_

#include <shared_mutex>
#include <string>
#include <vector>

#include "core/dehin.h"
#include "exec/executor.h"
#include "hin/graph.h"
#include "service/server.h"

namespace hinpriv::service {

// The local-scan role: attack_one runs core::Dehin over the auxiliary
// graph in this process, with the intra-query parallel scan on the
// server's pool, and apply_delta grows that graph and its warm state in
// place. A shard worker is a local scan over its slice whose candidates
// are translated back to parent ids through config.aux_id_map.
class LocalScan : public Handler {
 public:
  // Both graphs are borrowed. Reads dehin, parallel_scan, mutable_aux and
  // aux_id_map from `config`.
  LocalScan(const hin::Graph* target, const hin::Graph* auxiliary,
            const ServerConfig& config);

  // Checks that mutable_aux aliases the auxiliary graph, then builds the
  // per-target Dehin state (prefilter tables, shared match cache shell)
  // so the first request does not pay for it.
  util::Status Start(exec::Executor* executor) override;
  Response AttackOne(hin::VertexId target, int max_distance,
                     const util::CancelToken& token) override;
  Response ApplyDelta(const std::string& path,
                      const util::CancelToken& token) override;
  void AppendStats(JsonValue* payload) override;

 private:
  const hin::Graph* target_;
  const hin::Graph* aux_;
  hin::Graph* mutable_aux_;
  std::vector<hin::VertexId> id_map_;
  bool parallel_scan_;
  exec::Executor* executor_ = nullptr;
  core::Dehin dehin_;
  // Warm-state lock for streaming growth: apply_delta holds it exclusively
  // while mutating the auxiliary graph + Dehin warm state batch by batch;
  // attack_one holds it shared. Uncontended in the common case (no deltas
  // in flight), and the unique_lock acquire/release per batch gives
  // queries a window between batches of a long stream.
  std::shared_mutex warm_mu_;
};

}  // namespace hinpriv::service

#endif  // HINPRIV_SERVICE_LOCAL_SCAN_H_
