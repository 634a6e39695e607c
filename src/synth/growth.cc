#include "synth/growth.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "hin/graph_builder.h"
#include "hin/tqq_schema.h"
#include "synth/profile.h"

namespace hinpriv::synth {

namespace {

using hin::AttrValue;
using hin::AttributeId;
using hin::Graph;
using hin::GraphBuilder;
using hin::GraphDelta;
using hin::LinkTypeId;
using hin::Strength;
using hin::VertexId;

}  // namespace

util::Result<GraphDelta> SampleGrowthDelta(const Graph& base,
                                           const GrowthConfig& growth,
                                           const TqqConfig& profile_config,
                                           util::Rng* rng) {
  const hin::NetworkSchema& schema = base.schema();
  if (schema.num_entity_types() != 1) {
    return util::Status::InvalidArgument(
        "SampleGrowthDelta supports single-entity-type target-schema graphs");
  }
  GraphDelta delta;
  const size_t base_n = base.num_vertices();
  const size_t num_attrs = base.num_attributes(0);
  delta.base_num_vertices = base_n;

  // Growable attributes of base users may bump (monotone growth).
  for (VertexId v = 0; v < base_n; ++v) {
    for (AttributeId a = 0; a < num_attrs; ++a) {
      if (schema.entity_type(0).attributes[a].growable &&
          rng->Bernoulli(growth.attr_growth_prob)) {
        delta.attr_bumps.push_back(GraphDelta::AttrBump{
            v, a,
            static_cast<AttrValue>(
                rng->UniformInt(1, std::max(1, growth.attr_growth_max)))});
      }
    }
  }

  // New users appended after the base ids, keeping ground truth stable.
  const size_t new_users = static_cast<size_t>(
      static_cast<double>(base_n) * growth.new_user_fraction);
  if (new_users > 0) {
    if (num_attrs <= hin::kTagCountAttr) {
      return util::Status::OutOfRange(
          "growth profile sampling needs the t.qq attribute layout");
    }
    ProfileSampler sampler(profile_config);
    delta.new_vertices.reserve(new_users);
    for (size_t i = 0; i < new_users; ++i) {
      const Profile profile = sampler.Sample(rng);
      GraphDelta::NewVertex nv;
      nv.type = 0;
      nv.attrs.assign(num_attrs, 0);
      nv.attrs[hin::kGenderAttr] = profile.gender;
      nv.attrs[hin::kYobAttr] = profile.yob;
      nv.attrs[hin::kTweetCountAttr] = profile.tweet_count;
      nv.attrs[hin::kTagCountAttr] = profile.tag_count;
      delta.new_vertices.push_back(std::move(nv));
    }
  }
  const size_t grown_n = base_n + new_users;

  // Strengths of growable-strength link types may grow; the increment is
  // an EdgeAdd that folds onto the existing edge when applied.
  for (LinkTypeId lt = 0; lt < schema.num_link_types(); ++lt) {
    if (!schema.link_type(lt).growable_strength) continue;
    for (VertexId v = 0; v < base_n; ++v) {
      for (const hin::Edge& e : base.OutEdges(lt, v)) {
        if (rng->Bernoulli(growth.strength_growth_prob)) {
          delta.edge_adds.push_back(GraphDelta::EdgeAdd{
              lt, v, e.neighbor,
              static_cast<Strength>(rng->UniformInt(
                  1, std::max<int64_t>(1, growth.strength_growth_max)))});
        }
      }
    }
  }

  // Newly formed links during the time gap: uniformly typed, random
  // endpoints across the grown user set. Duplicates against base edges fold
  // into strength increases, which is also growth-consistent.
  const size_t new_edges = static_cast<size_t>(
      static_cast<double>(base.num_edges()) * growth.new_edge_fraction);
  const util::ZipfSampler popularity(grown_n, profile_config.popularity_zipf);
  std::unordered_set<uint64_t> added;  // dedup for non-growable strengths
  for (size_t i = 0; i < new_edges; ++i) {
    const LinkTypeId lt =
        static_cast<LinkTypeId>(rng->UniformU64(schema.num_link_types()));
    const VertexId src = static_cast<VertexId>(rng->UniformU64(grown_n));
    const VertexId dst = static_cast<VertexId>(popularity.Sample(rng));
    if (src == dst && !schema.link_type(lt).allows_self_link) continue;
    if (!schema.link_type(lt).growable_strength) {
      // A follow either exists or not: never fold a "new" follow onto an
      // existing one (that would inflate a non-growable strength).
      if (src < base_n && base.HasEdge(lt, src, dst)) continue;
      const uint64_t key = (static_cast<uint64_t>(lt) << 56) ^
                           (static_cast<uint64_t>(src) << 28) ^ dst;
      if (!added.insert(key).second) continue;
    }
    delta.edge_adds.push_back(GraphDelta::EdgeAdd{lt, src, dst, 1});
  }
  return delta;
}

util::Result<GrownNetwork> GrowNetworkWithDelta(const Graph& base,
                                                const GrowthConfig& growth,
                                                const TqqConfig& profile_config,
                                                util::Rng* rng) {
  auto delta = SampleGrowthDelta(base, growth, profile_config, rng);
  if (!delta.ok()) return delta.status();

  // A copy of the base (the caller's graph stays as it is), then the
  // delta path.
  GraphBuilder builder(base.schema());
  HINPRIV_RETURN_IF_ERROR(CopyVerticesWithAttributes(base, &builder));
  HINPRIV_RETURN_IF_ERROR(CopyEdges(base, &builder));
  auto grown = std::move(builder).Build();
  if (!grown.ok()) return grown.status();
  HINPRIV_RETURN_IF_ERROR(
      GraphBuilder::ApplyDelta(&grown.value(), delta.value()));
  return GrownNetwork{std::move(grown).value(), std::move(delta).value()};
}

util::Result<Graph> GrowNetwork(const Graph& base, const GrowthConfig& growth,
                                const TqqConfig& profile_config,
                                util::Rng* rng) {
  auto grown = GrowNetworkWithDelta(base, growth, profile_config, rng);
  if (!grown.ok()) return grown.status();
  return std::move(grown.value().graph);
}

}  // namespace hinpriv::synth
