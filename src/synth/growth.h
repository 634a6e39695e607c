#ifndef HINPRIV_SYNTH_GROWTH_H_
#define HINPRIV_SYNTH_GROWTH_H_

#include "hin/graph.h"
#include "hin/graph_delta.h"
#include "synth/tqq_config.h"
#include "util/random.h"
#include "util/status.h"

namespace hinpriv::synth {

// Samples the Section 5.1 threat-model growth against a base network as a
// structured, replayable hin::GraphDelta — the batch an adversary's crawler
// would observe after a time gap:
//
//   * new users appended after the base ids (ground truth stays valid);
//   * new links (possibly touching base users); nothing is ever removed;
//   * growable profile attributes (AttributeDef.growable) only increase,
//     encoded as positive AttrBump records;
//   * strengths of growable-strength link types only increase, encoded as
//     EdgeAdd records that fold onto the existing edge.
//
// Only single-entity-type target-schema graphs are supported (the growth
// semantics of tweets/comments are induced via projection instead). The
// RNG draw sequence is identical to the historical GrowNetwork, so seeded
// runs reproduce the same grown network whether they materialize it
// directly or replay the delta.
util::Result<hin::GraphDelta> SampleGrowthDelta(const hin::Graph& base,
                                                const GrowthConfig& growth,
                                                const TqqConfig& profile_config,
                                                util::Rng* rng);

// A grown auxiliary network together with the delta that produced it from
// the base. Further deltas apply to `graph` via
// hin::GraphBuilder::ApplyDelta.
struct GrownNetwork {
  hin::Graph graph;
  hin::GraphDelta delta;
};

// Samples a growth delta and applies it to a copy of `base`.
util::Result<GrownNetwork> GrowNetworkWithDelta(const hin::Graph& base,
                                                const GrowthConfig& growth,
                                                const TqqConfig& profile_config,
                                                util::Rng* rng);

// Convenience wrapper returning just the grown graph.
util::Result<hin::Graph> GrowNetwork(const hin::Graph& base,
                                     const GrowthConfig& growth,
                                     const TqqConfig& profile_config,
                                     util::Rng* rng);

}  // namespace hinpriv::synth

#endif  // HINPRIV_SYNTH_GROWTH_H_
