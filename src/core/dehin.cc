#include "core/dehin.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <string>
#include <unordered_map>

#include "exec/executor.h"
#include "hin/graph_builder.h"
#include "hin/graph_delta.h"
#include "matching/hopcroft_karp.h"
#include "obs/trace.h"

namespace hinpriv::core {

namespace {

// Process-wide instruments the hot path mirrors into (resolved once; see
// DESIGN.md "Observability" for the naming scheme). The per-instance
// counters remain the source of truth for Dehin::stats().
struct GlobalDehinMetrics {
  obs::Counter* prefilter_rejects;
  obs::Counter* cache_hits;
  obs::Counter* full_tests;
  // Dimensions of every bipartite graph handed to Hopcroft-Karp (left =
  // target neighbors, right = auxiliary neighbors).
  obs::Histogram* bipartite_left;
  obs::Histogram* bipartite_right;
  // Candidate enumeration strategy per query: inverted-index bucket walk
  // vs the O(V) full scan (index ablated or a custom entity matcher).
  obs::Counter* index_scans;
  obs::Counter* full_scans;
};

const GlobalDehinMetrics& GlobalMetrics() {
  static const GlobalDehinMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return GlobalDehinMetrics{
        registry.GetCounter("dehin/prefilter_rejects"),
        registry.GetCounter("dehin/cache_hits"),
        registry.GetCounter("dehin/full_tests"),
        registry.GetHistogram("dehin/bipartite_left"),
        registry.GetHistogram("dehin/bipartite_right"),
        registry.GetCounter("dehin/index_scans"),
        registry.GetCounter("dehin/full_scans"),
    };
  }();
  return metrics;
}

// Candidate-set-size histogram per utilized distance ("dehin/
// candidate_set_size/d<N>", distances above 8 pooled into d8+). Resolved
// lazily and cached lock-free: one registry lookup per distance per
// process, one relaxed load afterwards.
obs::Histogram* CandidateSetHistogram(int max_distance) {
  constexpr int kMaxTracked = 8;
  static std::array<std::atomic<obs::Histogram*>, kMaxTracked + 1> cache{};
  const int d = std::clamp(max_distance, 0, kMaxTracked);
  obs::Histogram* histogram = cache[d].load(std::memory_order_acquire);
  if (histogram == nullptr) {
    const std::string name =
        "dehin/candidate_set_size/d" + std::to_string(d) +
        (d == kMaxTracked ? "+" : "");
    histogram = obs::MetricsRegistry::Global().GetHistogram(name);
    cache[d].store(histogram, std::memory_order_release);
  }
  return histogram;
}

}  // namespace

Dehin::Dehin(const hin::Graph* auxiliary, DehinConfig config)
    : aux_(auxiliary), config_(std::move(config)) {
  // The index compiles exactly the MatchOptions profile predicate, so a
  // custom entity matcher forces the full scan through the override.
  if (!config_.entity_match_override) {
    index_ = std::make_unique<CandidateIndex>(*aux_, config_.match);
  }
}

std::vector<std::vector<hin::VertexId>> Dehin::DirtyClosure(
    const hin::GraphDelta& delta, size_t radius) const {
  const size_t n = aux_->num_vertices();
  // A cached (·, va, d) entry depends on va's neighborhood out to d hops
  // (neighbor attributes and edge strengths), so a change at distance k
  // from va dirties its depth-d entries for every d >= k. Distance-0 seeds
  // are the delta's touched vertices themselves.
  std::vector<uint8_t> dist(n, 0xff);
  std::vector<hin::VertexId> frontier;
  auto touch = [&](hin::VertexId v) {
    if (dist[v] == 0xff) {
      dist[v] = 0;
      frontier.push_back(v);
    }
  };
  for (size_t v = delta.base_num_vertices; v < n; ++v) {
    touch(static_cast<hin::VertexId>(v));
  }
  for (const hin::GraphDelta::EdgeAdd& e : delta.edge_adds) {
    touch(e.src);
    touch(e.dst);
  }
  for (const hin::GraphDelta::AttrBump& b : delta.attr_bumps) touch(b.v);

  radius = std::min<size_t>(radius, 0xfe);
  std::vector<std::vector<hin::VertexId>> by_depth(radius);
  std::vector<hin::VertexId> reached = frontier;
  for (size_t d = 1; d <= radius; ++d) {
    std::vector<hin::VertexId> next;
    for (hin::VertexId v : frontier) {
      for (hin::LinkTypeId lt : config_.match.link_types) {
        for (const hin::Edge& e : aux_->OutEdges(lt, v)) {
          if (dist[e.neighbor] == 0xff) {
            dist[e.neighbor] = static_cast<uint8_t>(d);
            next.push_back(e.neighbor);
          }
        }
        for (const hin::Edge& e : aux_->InEdges(lt, v)) {
          if (dist[e.neighbor] == 0xff) {
            dist[e.neighbor] = static_cast<uint8_t>(d);
            next.push_back(e.neighbor);
          }
        }
      }
    }
    reached.insert(reached.end(), next.begin(), next.end());
    by_depth[d - 1] = reached;  // everything within distance d
    frontier = std::move(next);
  }
  return by_depth;
}

util::Status Dehin::ApplyAuxDelta(const hin::GraphDelta& delta) {
  HINPRIV_SPAN("dehin/apply_delta");
  if (aux_->num_vertices() !=
      delta.base_num_vertices + delta.new_vertices.size()) {
    return util::Status::FailedPrecondition(
        "ApplyAuxDelta must run after hin::GraphBuilder::ApplyDelta has "
        "mutated the auxiliary graph");
  }
  if (index_) {
    HINPRIV_SPAN("dehin/apply_delta/index");
    std::lock_guard<std::mutex> lock(target_mu_);  // guards the dictionary
    index_->ApplyDelta(delta);
  }

  // Epoch-invalidate every cached target state's shared match cache for
  // the delta's d-hop closure; per-call memos (shared cache ablated) need
  // nothing — they never outlive a query. With no cache depth populated
  // (no shared cache, or n = 1, whose root-only matches are never
  // memoized) there is nothing to invalidate: the batch counts as
  // skipped, not as a closure of zero vertices.
  uint64_t dirty_vertices = 0;
  bool skipped_invalidation = true;
  {
    HINPRIV_SPAN("dehin/apply_delta/caches");
    std::vector<std::shared_ptr<const TargetState>> states;
    {
      std::lock_guard<std::mutex> lock(target_mu_);
      states.reserve(target_states_.size());
      for (const auto& [graph, state] : target_states_) {
        states.push_back(state);
      }
    }
    size_t radius = 0;
    for (const auto& state : states) {
      if (state->cache) {
        radius = std::max(radius, state->cache->MaxPopulatedDepth());
      }
    }
    if (radius > 0) {
      skipped_invalidation = false;
      const std::vector<std::vector<hin::VertexId>> dirty =
          DirtyClosure(delta, radius);
      for (const auto& state : states) {
        if (state->cache) state->cache->Invalidate(dirty);
      }
      if (!dirty.empty()) dirty_vertices = dirty.back().size();
    }
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("dehin/delta_batches")->Increment();
  registry.GetCounter("dehin/delta_new_vertices")
      ->Add(delta.new_vertices.size());
  registry.GetCounter("dehin/delta_new_edges")->Add(delta.edge_adds.size());
  registry.GetCounter("dehin/delta_attr_bumps")->Add(delta.attr_bumps.size());
  registry.GetCounter("dehin/delta_dirty_vertices")->Add(dirty_vertices);
  if (skipped_invalidation) {
    registry.GetCounter("dehin/delta_invalidation_skips")->Increment();
  }
  return util::Status::OK();
}

bool Dehin::StrengthMatch(hin::Strength target_strength,
                          hin::Strength aux_strength) const {
  if (config_.link_match_override) {
    return config_.link_match_override(target_strength, aux_strength);
  }
  return LinkStrengthMatch(target_strength, aux_strength,
                           config_.match.growth_aware);
}

DehinStats Dehin::stats() const {
  DehinStats s;
  s.prefilter_rejects = prefilter_rejects_.Value();
  s.cache_hits = cache_hits_.Value();
  s.full_tests = full_tests_.Value();
  return s;
}

void Dehin::ResetStats() const {
  prefilter_rejects_.Reset();
  cache_hits_.Reset();
  full_tests_.Reset();
}

std::shared_ptr<const Dehin::TargetState> Dehin::GetTargetState(
    const hin::Graph& target) const {
  std::lock_guard<std::mutex> lock(target_mu_);
  auto it = target_states_.find(&target);
  if (it != target_states_.end() &&
      it->second->num_vertices == target.num_vertices() &&
      it->second->num_edges == target.num_edges()) {
    return it->second;
  }
  HINPRIV_SPAN("dehin/build_target_state");
  auto state = std::make_shared<TargetState>();
  // The saturation threshold in absolute neighbor count (see DehinConfig);
  // constant per target graph, so hoisted out of LinkMatch entirely.
  state->saturation_limit = static_cast<size_t>(
      config_.saturation_fraction *
      static_cast<double>(target.num_vertices() > 0 ? target.num_vertices() - 1
                                                    : 0));
  if (index_ != nullptr) state->rows = index_->CompileRows(target);
  if (config_.use_shared_cache) {
    state->cache = std::make_unique<MatchCache>(/*num_shards=*/64);
  }
  state->num_vertices = target.num_vertices();
  state->num_edges = target.num_edges();
  // Replacing a stale entry only drops the map's reference; calls that
  // already pinned the old state keep it alive until they finish.
  target_states_[&target] = state;
  return state;
}

void Dehin::InvalidateTarget(const hin::Graph& target) const {
  std::lock_guard<std::mutex> lock(target_mu_);
  target_states_.erase(&target);
}

size_t Dehin::num_cached_target_states() const {
  std::lock_guard<std::mutex> lock(target_mu_);
  return target_states_.size();
}

std::vector<hin::VertexId> Dehin::Deanonymize(const hin::Graph& target,
                                              hin::VertexId vt,
                                              int max_distance) const {
  // Without a token the cancellable path can only return a value.
  return Deanonymize(target, vt, max_distance, nullptr).value();
}

util::Result<std::vector<hin::VertexId>> Dehin::Deanonymize(
    const hin::Graph& target, hin::VertexId vt, int max_distance,
    const util::CancelToken* cancel) const {
  HINPRIV_SPAN("dehin/deanonymize");
  // Pin the state for this whole call: a concurrent InvalidateTarget or
  // stale-fingerprint rebuild must not free it out from under us.
  const std::shared_ptr<const TargetState> pinned = GetTargetState(target);
  const TargetState& state = *pinned;
  // Per-call fallback memo when the cross-call cache is ablated.
  std::unique_ptr<MatchCache> local_memo;
  MatchCache* cache = state.cache.get();
  if (cache == nullptr && max_distance > 0) {
    local_memo = std::make_unique<MatchCache>(/*num_shards=*/1);
    cache = local_memo.get();
  }
  LocalStats local;
  local.cancel = cancel;
  std::vector<hin::VertexId> candidates;
  auto consider = [&](hin::VertexId va) {
    if (local.cancel != nullptr) {
      // Per-candidate poll: catches an already-expired deadline before any
      // work and bounds the stop latency by one candidate's evaluation.
      if (local.stopped) return;
      if (local.cancel->ShouldStop()) {
        local.stopped = true;
        return;
      }
    }
    if (max_distance > 0 && !LinkMatch(max_distance, target, vt, va, state,
                                       cache, &local, /*is_root=*/true)) {
      return;
    }
    candidates.push_back(va);
  };
  if (cancel != nullptr && cancel->ShouldStop()) {
    local.stopped = true;  // dead on arrival (e.g. a 0ms deadline)
  } else if (walks_index()) {
    GlobalMetrics().index_scans->Increment();
    index_->ForEachCandidate(state.rows, vt, consider);
  } else {
    GlobalMetrics().full_scans->Increment();
    const auto num_aux = static_cast<hin::VertexId>(aux_->num_vertices());
    for (hin::VertexId va = 0; va < num_aux; ++va) {
      if (local.stopped) break;
      if (EntityMatch(target, state, vt, va)) consider(va);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  if (local.prefilter_rejects + local.cache_hits + local.full_tests > 0) {
    prefilter_rejects_.Add(local.prefilter_rejects);
    cache_hits_.Add(local.cache_hits);
    full_tests_.Add(local.full_tests);
    const GlobalDehinMetrics& global = GlobalMetrics();
    global.prefilter_rejects->Add(local.prefilter_rejects);
    global.cache_hits->Add(local.cache_hits);
    global.full_tests->Add(local.full_tests);
  }
  if (local.stopped) {
    // The scan ended early, so `candidates` is partial; report why instead.
    // (Counters above still flushed: that work really ran.)
    return cancel->deadline_exceeded()
               ? util::Status::DeadlineExceeded("dehin: deadline exceeded")
               : util::Status::Cancelled("dehin: cancelled");
  }
  CandidateSetHistogram(max_distance)->Record(candidates.size());
  return candidates;
}

util::Result<std::vector<hin::VertexId>> Dehin::DeanonymizeParallel(
    const hin::Graph& target, hin::VertexId vt, int max_distance) const {
  return DeanonymizeParallel(target, vt, max_distance, ParallelScanOptions{});
}

util::Result<std::vector<hin::VertexId>> Dehin::DeanonymizeParallel(
    const hin::Graph& target, hin::VertexId vt, int max_distance,
    const ParallelScanOptions& options) const {
  exec::Executor* executor = options.executor != nullptr
                                 ? options.executor
                                 : &exec::Executor::Global();
  // A single-worker pool has nothing to overlap; the serial path also
  // keeps the per-candidate cancel semantics exact.
  if (executor->num_workers() <= 1) {
    return Deanonymize(target, vt, max_distance, options.cancel);
  }
  HINPRIV_SPAN("dehin/deanonymize_parallel");
  const util::CancelToken* cancel = options.cancel;
  auto stop_status = [cancel]() -> util::Status {
    return cancel != nullptr && cancel->deadline_exceeded()
               ? util::Status::DeadlineExceeded("dehin: deadline exceeded")
               : util::Status::Cancelled("dehin: cancelled");
  };
  if (cancel != nullptr && cancel->ShouldStop()) return stop_status();
  const std::shared_ptr<const TargetState> pinned = GetTargetState(target);
  const TargetState& state = *pinned;

  // Phase 1 — candidate pool. With the index, enumeration is a serial
  // bucket walk over the profile-matched entries (typically a small slice
  // of the graph) and the parallel phase fans out the expensive LinkMatch
  // tests; without it, the entity scan itself is the bulk of the work and
  // the parallel phase runs directly over the vertex range.
  std::vector<hin::VertexId> pool;
  const bool pool_is_entity_matched = walks_index();
  size_t n = 0;
  if (pool_is_entity_matched) {
    GlobalMetrics().index_scans->Increment();
    index_->ForEachCandidate(state.rows, vt,
                             [&](hin::VertexId va) { pool.push_back(va); });
    if (max_distance == 0) {
      // Profile-only attack: enumeration already was the whole scan.
      std::sort(pool.begin(), pool.end());
      CandidateSetHistogram(max_distance)->Record(pool.size());
      return pool;
    }
    n = pool.size();
  } else {
    GlobalMetrics().full_scans->Increment();
    n = aux_->num_vertices();
  }

  // Phase 2 — grain-parallel candidate tests. Each claimed grain gets its
  // own LocalStats (whose sticky stop flag keeps truncated results out of
  // the match cache, exactly like the serial cancellable path) and its
  // own result slot, indexed by grain ordinal so the merge below is
  // independent of which worker ran what when.
  const size_t grain = options.grain != 0
                           ? options.grain
                           : exec::DefaultGrain(n, executor->num_workers());
  const size_t num_grains = n == 0 ? 0 : (n + grain - 1) / grain;
  std::vector<std::vector<hin::VertexId>> grain_results(num_grains);
  std::atomic<uint64_t> total_prefilter_rejects{0};
  std::atomic<uint64_t> total_cache_hits{0};
  std::atomic<uint64_t> total_full_tests{0};
  std::atomic<bool> grain_stopped{false};
  MatchCache* shared_cache = state.cache.get();

  exec::ParallelForOptions pf_options;
  pf_options.grain = grain;
  pf_options.cancel = cancel;
  const exec::ParallelForResult run = executor->ParallelFor(
      n,
      [&](size_t begin, size_t end) {
        LocalStats local;
        local.cancel = cancel;
        // Per-grain fallback memo when the cross-call cache is ablated —
        // narrower reuse than the serial per-call memo, but LinkMatch is
        // pure, so only speed differs, never answers.
        std::unique_ptr<MatchCache> local_memo;
        MatchCache* cache = shared_cache;
        if (cache == nullptr && max_distance > 0) {
          local_memo = std::make_unique<MatchCache>(/*num_shards=*/1);
          cache = local_memo.get();
        }
        std::vector<hin::VertexId>& accepted = grain_results[begin / grain];
        for (size_t i = begin; i < end; ++i) {
          if (local.stopped) break;
          if (cancel != nullptr && cancel->ShouldStop()) {
            local.stopped = true;
            break;
          }
          const hin::VertexId va = pool_is_entity_matched
                                       ? pool[i]
                                       : static_cast<hin::VertexId>(i);
          if (!pool_is_entity_matched &&
              !EntityMatch(target, state, vt, va)) {
            continue;
          }
          if (max_distance > 0 &&
              !LinkMatch(max_distance, target, vt, va, state, cache, &local,
                         /*is_root=*/true)) {
            continue;
          }
          if (local.stopped) break;  // the accept above may be truncated
          accepted.push_back(va);
        }
        if (local.stopped) {
          grain_stopped.store(true, std::memory_order_relaxed);
        }
        total_prefilter_rejects.fetch_add(local.prefilter_rejects,
                                          std::memory_order_relaxed);
        total_cache_hits.fetch_add(local.cache_hits,
                                   std::memory_order_relaxed);
        total_full_tests.fetch_add(local.full_tests,
                                   std::memory_order_relaxed);
      },
      pf_options);

  const uint64_t prefilter_rejects =
      total_prefilter_rejects.load(std::memory_order_relaxed);
  const uint64_t cache_hits = total_cache_hits.load(std::memory_order_relaxed);
  const uint64_t full_tests = total_full_tests.load(std::memory_order_relaxed);
  if (prefilter_rejects + cache_hits + full_tests > 0) {
    prefilter_rejects_.Add(prefilter_rejects);
    cache_hits_.Add(cache_hits);
    full_tests_.Add(full_tests);
    const GlobalDehinMetrics& global = GlobalMetrics();
    global.prefilter_rejects->Add(prefilter_rejects);
    global.cache_hits->Add(cache_hits);
    global.full_tests->Add(full_tests);
  }
  if (run.stopped || grain_stopped.load(std::memory_order_relaxed)) {
    // Some grain (or the claim loop) observed the stop, so the collected
    // candidates are partial; report why instead. (Counters above still
    // flushed: that work really ran.)
    return stop_status();
  }

  // Deterministic merge: concatenate in grain order, then sort — the same
  // canonical ascending order the serial path produces.
  size_t total = 0;
  for (const auto& accepted : grain_results) total += accepted.size();
  std::vector<hin::VertexId> candidates;
  candidates.reserve(total);
  for (const auto& accepted : grain_results) {
    candidates.insert(candidates.end(), accepted.begin(), accepted.end());
  }
  std::sort(candidates.begin(), candidates.end());
  CandidateSetHistogram(max_distance)->Record(candidates.size());
  return candidates;
}

bool Dehin::DegreesAdmit(const hin::Graph& target, hin::VertexId vt,
                         hin::VertexId va, size_t saturation_limit) const {
  const bool in_edges = config_.match.use_in_edges;
  for (const hin::LinkTypeId lt : config_.match.link_types) {
    for (int dir = 0; dir < (in_edges ? 2 : 1); ++dir) {
      const bool incoming = dir == 1;
      const size_t t_degree =
          incoming ? target.InDegree(lt, vt) : target.OutDegree(lt, vt);
      // The same skips as the full test: an empty or saturated target run
      // constrains nothing.
      if (t_degree == 0 || t_degree > saturation_limit) continue;
      const size_t a_degree =
          incoming ? aux_->InDegree(lt, va) : aux_->OutDegree(lt, va);
      if (a_degree < t_degree) return false;
    }
  }
  return true;
}

bool Dehin::LinkMatch(int depth, const hin::Graph& target, hin::VertexId vt,
                      hin::VertexId va, const TargetState& state,
                      MatchCache* cache, LocalStats* local,
                      bool is_root) const {
  // Cooperative cancellation: a sticky stop flag short-circuits the whole
  // remaining recursion; the token itself is only polled every
  // kCancelCheckStride calls so the steady-clock read stays off the common
  // path. Returning false here is a "don't care" value — the root call
  // discards the candidate set once it sees local->stopped.
  if (local->cancel != nullptr) {
    if (local->stopped) return false;
    if (--local->cancel_countdown == 0) {
      local->cancel_countdown = LocalStats::kCancelCheckStride;
      if (local->cancel->ShouldStop()) {
        local->stopped = true;
        return false;
      }
    }
  }
  // Layer 1 runs before the cache: the degree check reads two adjacency
  // offsets per (link type, direction), cheaper than a locked cache probe,
  // so rejected pairs are never inserted (they would only displace entries
  // whose recomputation is expensive) and the cache stays small and hot.
  if (!DegreesAdmit(target, vt, va, state.saturation_limit)) {
    // Some link type has fewer auxiliary than target neighbors: the loop
    // below would have ended without a perfect left matching.
    ++local->prefilter_rejects;
    return false;
  }
  const uint64_t key = MatchCache::PairKey(vt, va);
  if (!is_root) {
    if (auto hit = cache->Lookup(depth, key)) {
      ++local->cache_hits;
      return *hit;
    }
  }
  ++local->full_tests;

  bool is_match = true;
  for (size_t lt_index = 0;
       is_match && lt_index < config_.match.link_types.size(); ++lt_index) {
    const hin::LinkTypeId lt = config_.match.link_types[lt_index];
    const int directions = config_.match.use_in_edges ? 2 : 1;
    for (int dir = 0; dir < directions && is_match; ++dir) {
      const bool incoming = dir == 1;
      const auto t_neighbors =
          incoming ? target.InEdges(lt, vt) : target.OutEdges(lt, vt);
      if (t_neighbors.empty()) continue;
      // A near-complete neighborhood is fake-link saturation (VW-CGA);
      // it carries no signal, so the adversary ignores this link type.
      if (t_neighbors.size() > state.saturation_limit) continue;
      const auto a_neighbors =
          incoming ? aux_->InEdges(lt, va) : aux_->OutEdges(lt, va);
      // Bipartite candidate sets C(b') for each target neighbor
      // (Algorithm 2), then the Hopcroft-Karp acceptance test.
      GlobalMetrics().bipartite_left->Record(t_neighbors.size());
      GlobalMetrics().bipartite_right->Record(a_neighbors.size());
      matching::BipartiteGraph bipartite(t_neighbors.size(),
                                         a_neighbors.size());
      for (uint32_t i = 0; i < t_neighbors.size(); ++i) {
        const hin::Edge& tb = t_neighbors[i];
        bool any = false;
        for (uint32_t j = 0; j < a_neighbors.size(); ++j) {
          const hin::Edge& ab = a_neighbors[j];
          if (!StrengthMatch(tb.strength, ab.strength)) continue;
          if (!EntityMatch(target, state, tb.neighbor, ab.neighbor)) {
            continue;
          }
          if (depth > 1 &&
              !LinkMatch(depth - 1, target, tb.neighbor, ab.neighbor, state,
                         cache, local, /*is_root=*/false)) {
            continue;
          }
          bipartite.AddEdge(i, j);
          any = true;
        }
        if (!any) {
          is_match = false;  // empty candidate set C(b'): no matching exists
          break;
        }
      }
      if (is_match && !matching::HasPerfectLeftMatching(bipartite)) {
        is_match = false;
      }
    }
  }
  // A result computed while (or after) the stop flag flipped may have seen
  // truncated sub-answers; caching it would poison later calls.
  if (!is_root && !local->stopped) cache->Insert(depth, key, is_match);
  return is_match;
}

util::Result<hin::Graph> StripMajorityStrengthLinks(const hin::Graph& graph) {
  hin::GraphBuilder builder(graph.schema());
  HINPRIV_RETURN_IF_ERROR(hin::CopyVerticesWithAttributes(graph, &builder));
  for (hin::LinkTypeId lt = 0; lt < graph.num_link_types(); ++lt) {
    // Majority (most frequent) strength for this link type; ties break
    // toward the smaller strength for determinism.
    std::unordered_map<hin::Strength, size_t> counts;
    for (hin::VertexId v = 0; v < graph.num_vertices(); ++v) {
      for (const hin::Edge& e : graph.OutEdges(lt, v)) ++counts[e.strength];
    }
    if (counts.empty()) continue;
    hin::Strength majority = 0;
    size_t majority_count = 0;
    for (const auto& [strength, count] : counts) {
      if (count > majority_count ||
          (count == majority_count && strength < majority)) {
        majority = strength;
        majority_count = count;
      }
    }
    for (hin::VertexId v = 0; v < graph.num_vertices(); ++v) {
      for (const hin::Edge& e : graph.OutEdges(lt, v)) {
        if (e.strength == majority) continue;
        HINPRIV_RETURN_IF_ERROR(builder.AddEdge(v, e.neighbor, lt, e.strength));
      }
    }
  }
  return std::move(builder).Build();
}

}  // namespace hinpriv::core
