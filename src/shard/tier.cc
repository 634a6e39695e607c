#include "shard/tier.h"

#include <utility>

#include "obs/trace.h"
#include "shard/scatter_gather.h"

namespace hinpriv::shard {

ShardTier::ShardTier(const hin::Graph* target, const hin::Graph* aux,
                     ShardTierConfig config)
    : target_(target), aux_(aux), config_(std::move(config)) {
  if (config_.num_shards == 0) config_.num_shards = 1;
  if (config_.halo_depth < 0) config_.halo_depth = 0;
}

ShardTier::~ShardTier() { Shutdown(); }

util::Status ShardTier::Start() {
  if (started_) {
    return util::Status::InvalidArgument("shard tier already started");
  }
  started_ = true;
  HINPRIV_SPAN("shard/tier_start");

  ShardPlanOptions plan_options;
  plan_options.num_shards = config_.num_shards;
  plan_options.hash_seed = config_.hash_seed;
  const ShardPlan plan(aux_->num_vertices(), plan_options);

  slices_.reserve(config_.num_shards);
  owned_counts_.reserve(config_.num_shards);
  for (size_t s = 0; s < config_.num_shards; ++s) {
    if (!config_.slice_prefix.empty()) {
      // Persistent slices: a slice saved by an earlier run (or another
      // worker process) is mmapped through the snapshot arenas; a missing
      // one is extracted, saved, then loaded back so the serving path is
      // the zero-copy mapping either way.
      auto loaded =
          LoadShardSlice(config_.slice_prefix, s, config_.num_shards,
                         config_.halo_depth, config_.snapshot);
      if (!loaded.ok() &&
          loaded.status().code() == util::Status::Code::kNotFound) {
        auto extracted = ExtractShardSlice(*aux_, plan, s, config_.halo_depth);
        if (!extracted.ok()) return extracted.status();
        HINPRIV_RETURN_IF_ERROR(SaveShardSlice(
            extracted.value(), config_.slice_prefix, s, config_.num_shards));
        loaded = LoadShardSlice(config_.slice_prefix, s, config_.num_shards,
                                config_.halo_depth, config_.snapshot);
      }
      if (!loaded.ok()) return loaded.status();
      slices_.push_back(std::move(loaded).value());
    } else {
      auto extracted = ExtractShardSlice(*aux_, plan, s, config_.halo_depth);
      if (!extracted.ok()) return extracted.status();
      slices_.push_back(std::move(extracted).value());
    }
    owned_counts_.push_back(slices_.back().num_owned);
  }

  shard_ports_.reserve(config_.num_shards);
  std::vector<ShardEndpoint> endpoints;
  endpoints.reserve(config_.num_shards);
  for (size_t s = 0; s < config_.num_shards; ++s) {
    service::ServerConfig cfg = config_.shard_server;
    cfg.host = "127.0.0.1";
    cfg.port = 0;  // ephemeral; the coordinator learns the bound port
    // Only owned vertices are root candidates; halo vertices exist solely
    // so owned verdicts match the full graph bit for bit.
    cfg.dehin.candidate_limit = slices_[s].num_owned;
    cfg.aux_id_map = slices_[s].to_parent;
    cfg.metric_shard = static_cast<int>(s);  // ShardMetricName clamps it
    auto server = std::make_unique<service::Server>(
        target_, &slices_[s].graph, std::move(cfg));
    HINPRIV_RETURN_IF_ERROR(server->Start());
    shard_ports_.push_back(server->port());
    endpoints.push_back(ShardEndpoint{"127.0.0.1", server->port()});
    shard_servers_.push_back(std::move(server));
  }

  service::ServerConfig coord_cfg = config_.coordinator;
  coord_cfg.metric_shard = -1;
  coordinator_ = std::make_unique<service::Server>(
      target_,
      std::make_unique<ScatterGather>(std::move(endpoints), config_.halo_depth,
                                      aux_),
      std::move(coord_cfg));
  return coordinator_->Start();
}

void ShardTier::Shutdown() {
  if (coordinator_ != nullptr) coordinator_->Shutdown();
  for (auto& server : shard_servers_) {
    if (server != nullptr) server->Shutdown();
  }
}

uint16_t ShardTier::port() const {
  return coordinator_ != nullptr ? coordinator_->port() : 0;
}

}  // namespace hinpriv::shard
