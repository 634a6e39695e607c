#include "shard/scatter_gather.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "obs/trace.h"
#include "service/json.h"

namespace hinpriv::shard {

using service::HealthState;
using service::JsonValue;
using service::Request;
using service::Response;
using service::ResponseCode;

namespace {

// Grace added to the per-shard receive timeout on top of the request's
// remaining deadline: the shard enforces the deadline itself and answers
// DEADLINE_EXCEEDED, so the socket timeout only has to catch a wedged or
// dead shard, not race the deadline.
constexpr double kShardRecvGraceMs = 250.0;
// Receive timeouts for the admin fan-outs (the shard side answers these
// on its admin thread, so they are fast even under compute saturation).
constexpr double kShardStatsTimeoutMs = 2000.0;
constexpr double kShardHealthTimeoutMs = 1000.0;

}  // namespace

ScatterGather::ScatterGather(std::vector<ShardEndpoint> endpoints,
                             int halo_depth, const hin::Graph* aux)
    : router_(std::move(endpoints)), halo_depth_(halo_depth), aux_(aux) {}

Response ScatterGather::AttackOne(hin::VertexId target, int max_distance,
                                  const util::CancelToken& token) {
  HINPRIV_SPAN("shard/attack_one");
  if (halo_depth_ >= 0 && max_distance > halo_depth_) {
    // Beyond the extracted halo a shard's verdicts would silently diverge
    // from the unsharded scan; refusing is the only honest answer.
    return service::ErrorResponse(
        ResponseCode::kInvalidRequest,
        "max_distance " + std::to_string(max_distance) +
            " exceeds the shard tier's halo depth " +
            std::to_string(halo_depth_));
  }

  // Scatter with the remaining deadline budget: the shard measures its
  // deadline from its own admission, so passing the remaining-from-here
  // milliseconds preserves the end-to-end budget (minus network time,
  // which on the loopback tier is microseconds).
  Request shard_request;
  shard_request.method = service::Method::kAttackOne;
  shard_request.target = target;
  shard_request.has_target = true;
  shard_request.max_distance = max_distance;
  double recv_timeout_ms = 0.0;
  if (const auto deadline = token.deadline();
      deadline != std::chrono::steady_clock::time_point{}) {
    const double remaining_ms = std::chrono::duration<double, std::milli>(
                                    deadline - std::chrono::steady_clock::now())
                                    .count();
    if (remaining_ms <= 0) {
      return service::ErrorResponse(ResponseCode::kDeadlineExceeded,
                                    "deadline expired before scatter");
    }
    shard_request.deadline_ms = remaining_ms;
    recv_timeout_ms = remaining_ms + kShardRecvGraceMs;
  }
  const std::vector<ShardReply> replies =
      router_.ScatterToAll(shard_request, recv_timeout_ms);

  // Merge. Every shard owns a disjoint span of the auxiliary vertex space
  // and returns its accepted candidates sorted ascending in parent ids,
  // so the union sorted ascending IS the unsharded candidate list; the
  // exact counts sum because ownership is a partition. The first
  // kMaxEncodedCandidates of the sorted union equal the unsharded
  // encoding even when shards truncated: a candidate with global rank
  // <= 1024 has within-shard rank <= 1024 and is therefore present.
  std::vector<uint64_t> merged;
  uint64_t total = 0;
  size_t shards_ok = 0;
  JsonValue failed = JsonValue::Array();
  bool all_deadline = true;
  bool all_busy = true;
  std::string first_error;
  for (const ShardReply& reply : replies) {
    if (reply.transport_ok && reply.response.code == ResponseCode::kOk) {
      ++shards_ok;
      const JsonValue& result = reply.response.result;
      total += static_cast<uint64_t>(result.GetInt("num_candidates", 0));
      if (const JsonValue* list = result.Find("candidates");
          list != nullptr && list->is_array()) {
        for (const JsonValue& c : list->items()) {
          merged.push_back(static_cast<uint64_t>(c.AsInt()));
        }
      }
      continue;
    }
    const ResponseCode code =
        reply.transport_ok ? reply.response.code : ResponseCode::kInternal;
    if (code != ResponseCode::kDeadlineExceeded) all_deadline = false;
    if (code != ResponseCode::kBusy) all_busy = false;
    const std::string reason =
        reply.transport_ok
            ? (reply.response.error.empty() ? ResponseCodeName(code)
                                            : reply.response.error)
            : reply.error;
    if (first_error.empty()) {
      first_error = "shard " + std::to_string(reply.shard) + ": " + reason;
    }
    JsonValue entry = JsonValue::Object();
    entry.Set("shard", JsonValue::Int(static_cast<int64_t>(reply.shard)));
    entry.Set("code", JsonValue::Str(ResponseCodeName(code)));
    entry.Set("error", JsonValue::Str(reason));
    failed.Append(std::move(entry));
  }
  if (shards_ok == 0) {
    return service::ErrorResponse(
        all_deadline ? ResponseCode::kDeadlineExceeded
        : all_busy   ? ResponseCode::kBusy
                     : ResponseCode::kInternal,
        "all " + std::to_string(replies.size()) + " shards failed (" +
            first_error + ")");
  }
  std::sort(merged.begin(), merged.end());
  Response response =
      service::AttackAnswer(target, max_distance, total, merged);
  response.result.Set("shards",
                      JsonValue::Int(static_cast<int64_t>(replies.size())));
  if (shards_ok < replies.size()) {
    // Partial degradation: the answer covers only the responsive shards'
    // spans. `deanonymized` may be a false positive here (a missing shard
    // could hold more candidates), so the partial flag is load-bearing.
    response.result.Set("partial", JsonValue::Bool(true));
    response.result.Set("failed_shards", std::move(failed));
  }
  return response;
}

Response ScatterGather::ApplyDelta(const std::string&,
                                   const util::CancelToken&) {
  // Growing a sharded tier would need coordinator-side delta splitting
  // with halo fan-out; the coordinator refuses instead.
  return service::ErrorResponse(
      ResponseCode::kInvalidRequest,
      "apply_delta is not supported in coordinator mode");
}

void ScatterGather::AppendStats(JsonValue* payload) {
  payload->Set("aux_vertices", JsonValue::Int(static_cast<int64_t>(
                                   aux_ != nullptr ? aux_->num_vertices() : 0)));
  payload->Set("aux_edges", JsonValue::Int(static_cast<int64_t>(
                                aux_ != nullptr ? aux_->num_edges() : 0)));
  payload->Set("parallel_scan", JsonValue::Bool(false));

  Request fanout;
  fanout.method = service::Method::kStats;
  const std::vector<ShardReply> replies =
      router_.ScatterToAll(fanout, kShardStatsTimeoutMs);

  // Honest aggregation (see DESIGN.md §12): shard windows may cover
  // different spans (a restarted shard's ring is shorter), so per-window
  // rate sums are reported alongside the min/max covered seconds instead
  // of pretending uniform coverage. Consumers that need a single number
  // should use qps_sum only when min/max coverage agree.
  JsonValue shards = JsonValue::Array();
  size_t shards_ok = 0;
  struct WindowAgg {
    double min_covered = 0.0;
    double max_covered = 0.0;
    double qps_sum = 0.0;
    size_t reporting = 0;
  };
  std::map<double, WindowAgg> aggs;  // by requested window seconds
  for (const ShardReply& reply : replies) {
    JsonValue entry = JsonValue::Object();
    entry.Set("shard", JsonValue::Int(static_cast<int64_t>(reply.shard)));
    const ShardEndpoint& ep = router_.endpoint(reply.shard);
    entry.Set("endpoint",
              JsonValue::Str(ep.host + ":" + std::to_string(ep.port)));
    const bool ok =
        reply.transport_ok && reply.response.code == ResponseCode::kOk;
    entry.Set("ok", JsonValue::Bool(ok));
    if (!ok) {
      entry.Set("error", JsonValue::Str(reply.transport_ok
                                            ? reply.response.error
                                            : reply.error));
      shards.Append(std::move(entry));
      continue;
    }
    ++shards_ok;
    const JsonValue& stats = reply.response.result;
    if (const JsonValue* windows = stats.Find("windows");
        windows != nullptr && windows->is_array()) {
      for (const JsonValue& w : windows->items()) {
        const double requested = w.GetDouble("requested_window_sec");
        const double covered = w.GetDouble("window_sec");
        WindowAgg& agg =
            aggs.try_emplace(requested, WindowAgg{covered, covered, 0.0, 0})
                .first->second;
        agg.min_covered = std::min(agg.min_covered, covered);
        agg.max_covered = std::max(agg.max_covered, covered);
        agg.qps_sum += w.GetDouble("qps");
        ++agg.reporting;
      }
    }
    entry.Set("stats", stats);
    shards.Append(std::move(entry));
  }
  payload->Set("shards", std::move(shards));

  JsonValue aggregate = JsonValue::Object();
  aggregate.Set("num_shards",
                JsonValue::Int(static_cast<int64_t>(replies.size())));
  aggregate.Set("shards_ok", JsonValue::Int(static_cast<int64_t>(shards_ok)));
  JsonValue agg_windows = JsonValue::Array();
  for (const auto& [requested, agg] : aggs) {
    JsonValue w = JsonValue::Object();
    w.Set("requested_window_sec", JsonValue::Number(requested));
    w.Set("min_window_sec", JsonValue::Number(agg.min_covered));
    w.Set("max_window_sec", JsonValue::Number(agg.max_covered));
    w.Set("shards_reporting",
          JsonValue::Int(static_cast<int64_t>(agg.reporting)));
    w.Set("qps_sum", JsonValue::Number(agg.qps_sum));
    agg_windows.Append(std::move(w));
  }
  aggregate.Set("windows", std::move(agg_windows));
  payload->Set("aggregate", std::move(aggregate));
}

HealthState ScatterGather::AppendHealth(HealthState own, JsonValue* payload) {
  Request fanout;
  fanout.method = service::Method::kHealth;
  const std::vector<ShardReply> replies =
      router_.ScatterToAll(fanout, kShardHealthTimeoutMs);
  // Worst-of tier health, with the per-shard breakdown.
  HealthState worst = own;
  JsonValue shards = JsonValue::Array();
  for (const ShardReply& reply : replies) {
    JsonValue entry = JsonValue::Object();
    entry.Set("shard", JsonValue::Int(static_cast<int64_t>(reply.shard)));
    const bool ok =
        reply.transport_ok && reply.response.code == ResponseCode::kOk;
    if (!ok) {
      // An unreachable shard means partial answers: that is shedding-grade
      // degradation regardless of the coordinator's own condition.
      worst = HealthState::kShedding;
      entry.Set("health", JsonValue::Str("unreachable"));
      entry.Set("error", JsonValue::Str(reply.transport_ok
                                            ? reply.response.error
                                            : reply.error));
      shards.Append(std::move(entry));
      continue;
    }
    const std::string state = reply.response.result.GetString("health", "ok");
    entry.Set("health", JsonValue::Str(state));
    if (state == "shedding") {
      worst = std::max(worst, HealthState::kShedding);
    } else if (state == "degraded") {
      worst = std::max(worst, HealthState::kDegraded);
    }
    shards.Append(std::move(entry));
  }
  payload->Set("shards", std::move(shards));
  return worst;
}

}  // namespace hinpriv::shard
