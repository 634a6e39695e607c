#ifndef HINPRIV_SERVICE_LOCAL_SCAN_H_
#define HINPRIV_SERVICE_LOCAL_SCAN_H_

#include <array>
#include <atomic>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "core/dehin.h"
#include "exec/executor.h"
#include "hin/graph.h"
#include "obs/metrics.h"
#include "service/server.h"

namespace hinpriv::service {

// The server's attack handler: attack_one runs core::Dehin over the
// auxiliary graph in this process, with the intra-query parallel scan on
// the server's pool (serial on a one-worker pool), and apply_delta grows
// that graph and its warm state in place.
class LocalScan : public Handler {
 public:
  // Both graphs are borrowed. Reads dehin and mutable_aux from `config`.
  LocalScan(const hin::Graph* target, const hin::Graph* auxiliary,
            const ServerConfig& config);

  // Checks that mutable_aux aliases the auxiliary graph, then builds the
  // per-target Dehin state (profile rows, shared match cache shell)
  // so the first request does not pay for it.
  util::Status Start(exec::Executor* executor) override;
  Response AttackOne(hin::VertexId target, int max_distance,
                     const util::CancelToken& token) override;
  Response ApplyDelta(const std::string& path,
                      const util::CancelToken& token) override;
  // Both add the growth fields (see growth_).
  void AppendStats(JsonValue* payload) override;
  void AppendHealth(JsonValue* payload) override;

 private:
  // Stores the epoch and the auxiliary graph's overlay size in growth_.
  // Called from Start() and after each committed batch, under warm_mu_.
  void PublishGrowth();
  void AppendGrowth(JsonValue* payload) const;

  const hin::Graph* target_;
  const hin::Graph* aux_;
  hin::Graph* mutable_aux_;
  exec::Executor* executor_ = nullptr;
  core::Dehin dehin_;
  // Serializes apply_delta requests, so each batch is prepared against
  // the state the previous one committed. Held across a whole stream.
  std::mutex writer_mu_;
  // Warm-state lock for streaming growth: apply_delta holds it exclusively
  // per batch, only to commit the prepared graph batch and refresh the
  // Dehin warm state; attack_one holds it shared. Uncontended in the
  // common case (no deltas in flight), and the acquire/release per batch
  // gives queries a window between batches of a long stream.
  std::shared_mutex warm_mu_;
  uint64_t delta_epoch_ = 0;  // batches applied since start; warm_mu_
  // Each batch's exclusive hold of warm_mu_ (service/apply_delta_hold_us).
  obs::Histogram* hold_us_;
  // Growth as of the last committed batch, one entry per field of
  // kGrowthFields (local_scan.cc): the delta epoch (batches applied since
  // start) and the overlay's patched runs, patched edges and compactions.
  // Atomics, so stats and health read them without warm_mu_; each is
  // mirrored into the service/<field> gauge.
  struct GrowthValue {
    std::atomic<uint64_t> value{0};
    obs::Gauge* gauge = nullptr;
  };
  std::array<GrowthValue, 4> growth_;
};

}  // namespace hinpriv::service

#endif  // HINPRIV_SERVICE_LOCAL_SCAN_H_
