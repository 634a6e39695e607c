#include "service/local_scan.h"

#include <chrono>
#include <mutex>
#include <utility>
#include <vector>

#include "hin/graph_builder.h"
#include "hin/graph_delta.h"
#include "obs/trace.h"

namespace hinpriv::service {

namespace {

// Field names in stats and health; the gauges are service/<name>.
constexpr std::array<const char*, 4> kGrowthFields = {
    "delta_epoch", "overlay_patched_runs", "overlay_patched_edges",
    "overlay_compactions"};

}  // namespace

LocalScan::LocalScan(const hin::Graph* target, const hin::Graph* auxiliary,
                     const ServerConfig& config)
    : target_(target),
      aux_(auxiliary),
      mutable_aux_(config.mutable_aux),
      dehin_(auxiliary, config.dehin),
      hold_us_(obs::MetricsRegistry::Global().GetHistogram(
          "service/apply_delta_hold_us")) {
  for (size_t i = 0; i < growth_.size(); ++i) {
    growth_[i].gauge = obs::MetricsRegistry::Global().GetGauge(
        std::string("service/") + kGrowthFields[i]);
  }
}

util::Status LocalScan::Start(exec::Executor* executor) {
  // The delta path mutates through mutable_aux while queries read through
  // the auxiliary pointer; anything but an exact alias would split them
  // into two diverging graphs.
  if (mutable_aux_ != nullptr && mutable_aux_ != aux_) {
    return util::Status::InvalidArgument(
        "mutable_aux must alias the auxiliary graph");
  }
  executor_ = executor;
  PublishGrowth();
  if (target_->num_vertices() > 0) {
    HINPRIV_SPAN("service/warm_target_state");
    (void)dehin_.Deanonymize(*target_, 0, 0);
  }
  return util::Status::OK();
}

Response LocalScan::AttackOne(hin::VertexId target, int max_distance,
                              const util::CancelToken& token) {
  // Shared against apply_delta's exclusive hold: a query never observes a
  // half-applied growth batch. Uncontended when no deltas are in flight.
  std::shared_lock<std::shared_mutex> warm_lock(warm_mu_);
  // The scan fans the query's candidate scan out across the pool (grains
  // run at kNormal priority, below the kHigh request tasks), or runs the
  // serial cancellable scan on a one-worker pool; either way the result
  // is bit-identical to the serial path.
  core::Dehin::ParallelScanOptions scan;
  scan.executor = executor_;
  scan.cancel = &token;
  util::Result<std::vector<hin::VertexId>> result =
      dehin_.DeanonymizeParallel(*target_, target, max_distance, scan);
  if (!result.ok()) {
    return ErrorResponse(
        result.status().code() == util::Status::Code::kDeadlineExceeded
            ? ResponseCode::kDeadlineExceeded
            : ResponseCode::kCancelled,
        result.status().message());
  }
  return AttackAnswer(target, max_distance, result.value());
}

Response LocalScan::ApplyDelta(const std::string& path,
                               const util::CancelToken& token) {
  HINPRIV_SPAN("service/apply_delta");
  if (mutable_aux_ == nullptr) {
    return ErrorResponse(ResponseCode::kInvalidRequest,
                         "server has no mutable auxiliary graph");
  }
  if (path.empty()) {
    return ErrorResponse(ResponseCode::kInvalidRequest,
                         "apply_delta requires a server-side 'path'");
  }
  auto stream = hin::LoadDeltaStreamFromFile(path);
  if (!stream.ok()) {
    return ErrorResponse(ResponseCode::kInvalidRequest,
                         stream.status().message());
  }

  // One writer at a time: a second request prepares against the state the
  // first one committed.
  std::lock_guard<std::mutex> writer(writer_mu_);
  const auto t0 = std::chrono::steady_clock::now();
  std::chrono::steady_clock::duration hold{};
  size_t batches_applied = 0;
  uint64_t new_vertices = 0, new_edges = 0, attr_bumps = 0;
  for (const hin::GraphDelta& delta : stream.value()) {
    // Deadline between batches: already-applied batches are fully
    // reflected in the warm state (graph + index + caches commit under one
    // exclusive hold), so stopping here leaves the server consistent at a
    // batch boundary.
    if (token.ShouldStop()) {
      return ErrorResponse(
          token.deadline_exceeded() ? ResponseCode::kDeadlineExceeded
                                    : ResponseCode::kCancelled,
          "stopped after " + std::to_string(batches_applied) + " of " +
              std::to_string(stream.value().size()) +
              " batches (each applied batch is fully committed)");
    }
    // Prepare only reads the graph, as attack_one does, so queries keep
    // running; a rejected batch leaves the graph exactly as the previous
    // batch committed it.
    util::Result<hin::PreparedDelta> prepared = [&] {
      HINPRIV_SPAN("service/apply_delta/prepare");
      return hin::GraphBuilder::PrepareDelta(*mutable_aux_, delta);
    }();
    if (!prepared.ok()) {
      return ErrorResponse(ResponseCode::kInvalidRequest,
                           "batch " + std::to_string(batches_applied) + ": " +
                               prepared.status().message());
    }
    {
      std::unique_lock<std::shared_mutex> warm_lock(warm_mu_);
      HINPRIV_SPAN("service/apply_delta/commit");
      const auto held = std::chrono::steady_clock::now();
      util::Status committed =
          hin::GraphBuilder::CommitDelta(mutable_aux_, &prepared.value());
      if (committed.ok()) committed = dehin_.ApplyAuxDelta(delta);
      if (!committed.ok()) {
        // The writer lock rules out a stale batch, and the graph matches
        // the delta Dehin gets: either failing is a programming error.
        return ErrorResponse(ResponseCode::kInternal, committed.message());
      }
      ++delta_epoch_;
      PublishGrowth();
      const auto batch_hold = std::chrono::steady_clock::now() - held;
      hold += batch_hold;
      hold_us_->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(batch_hold)
              .count()));
    }
    // `prepared` now holds the buffers the commit replaced; they are freed
    // at the end of this iteration, after the hold.
    ++batches_applied;
    new_vertices += delta.new_vertices.size();
    new_edges += delta.edge_adds.size();
    attr_bumps += delta.attr_bumps.size();
  }
  const auto apply_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  const auto hold_us =
      std::chrono::duration_cast<std::chrono::microseconds>(hold).count();

  Response response;
  JsonValue& payload = response.result = JsonValue::Object();
  payload.Set("batches_applied",
              JsonValue::Int(static_cast<int64_t>(batches_applied)));
  payload.Set("new_vertices",
              JsonValue::Int(static_cast<int64_t>(new_vertices)));
  payload.Set("new_edges", JsonValue::Int(static_cast<int64_t>(new_edges)));
  payload.Set("attr_bumps", JsonValue::Int(static_cast<int64_t>(attr_bumps)));
  payload.Set("num_vertices",
              JsonValue::Int(static_cast<int64_t>(mutable_aux_->num_vertices())));
  payload.Set("num_edges",
              JsonValue::Int(static_cast<int64_t>(mutable_aux_->num_edges())));
  payload.Set("apply_us", JsonValue::Number(static_cast<double>(apply_us)));
  payload.Set("hold_us", JsonValue::Number(static_cast<double>(hold_us)));
  return response;
}

void LocalScan::PublishGrowth() {
  const hin::Graph::OverlayStats overlay = aux_->overlay_stats();
  const std::array<uint64_t, 4> values = {
      delta_epoch_, overlay.patched_runs, overlay.patched_edges,
      overlay.compactions};
  for (size_t i = 0; i < growth_.size(); ++i) {
    growth_[i].value.store(values[i], std::memory_order_relaxed);
    growth_[i].gauge->Set(static_cast<double>(values[i]));
  }
}

void LocalScan::AppendGrowth(JsonValue* payload) const {
  for (size_t i = 0; i < growth_.size(); ++i) {
    payload->Set(kGrowthFields[i],
                 JsonValue::Int(static_cast<int64_t>(
                     growth_[i].value.load(std::memory_order_relaxed))));
  }
}

void LocalScan::AppendHealth(JsonValue* payload) { AppendGrowth(payload); }

void LocalScan::AppendStats(JsonValue* payload) {
  AppendGrowth(payload);
  {
    // apply_delta changes both sizes under its exclusive hold.
    std::shared_lock<std::shared_mutex> warm_lock(warm_mu_);
    payload->Set("aux_vertices",
                 JsonValue::Int(static_cast<int64_t>(aux_->num_vertices())));
    payload->Set("aux_edges",
                 JsonValue::Int(static_cast<int64_t>(aux_->num_edges())));
  }
  const core::DehinStats stats = dehin_.stats();
  JsonValue dehin = JsonValue::Object();
  dehin.Set("prefilter_rejects",
            JsonValue::Int(static_cast<int64_t>(stats.prefilter_rejects)));
  dehin.Set("cache_hits", JsonValue::Int(static_cast<int64_t>(stats.cache_hits)));
  dehin.Set("full_tests", JsonValue::Int(static_cast<int64_t>(stats.full_tests)));
  const uint64_t cache_lookups = stats.cache_hits + stats.full_tests;
  dehin.Set("cache_hit_rate",
            JsonValue::Number(cache_lookups > 0
                                  ? static_cast<double>(stats.cache_hits) /
                                        static_cast<double>(cache_lookups)
                                  : 0.0));
  payload->Set("dehin", std::move(dehin));
}

}  // namespace hinpriv::service
