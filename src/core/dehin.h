#ifndef HINPRIV_CORE_DEHIN_H_
#define HINPRIV_CORE_DEHIN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/candidate_index.h"
#include "core/match_cache.h"
#include "core/matchers.h"
#include "exec/executor.h"
#include "hin/graph.h"
#include "obs/metrics.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace hinpriv::core {

// Configuration of the DeHIN attack (Algorithms 1 and 2).
struct DehinConfig {
  MatchOptions match;
  // Max distance n of utilized neighbors. 0 = profile attributes only.
  int max_distance = 1;
  // Enumerate candidates by walking the CandidateIndex's class bucket
  // instead of comparing every auxiliary vertex's profile row (the paper's
  // literal "foreach v in V" scan). Semantically identical
  // (differential-tested); turn off to measure the scan cost.
  bool use_candidate_index = true;
  // Layer-2 acceleration: memoize LinkMatch results in a sharded cache
  // shared across all Deanonymize calls (and threads) instead of one
  // std::unordered_map per call, so sub-results computed while scoring one
  // target vertex are reused for every other target whose neighborhood
  // touches the same pairs. Answer-preserving: LinkMatch(vt, va, depth) is
  // a pure function of the two graphs and the config. Turn off
  // (--no-shared-cache) to fall back to the per-call memo.
  bool use_shared_cache = true;
  // A link type (and direction) whose target-side neighborhood covers more
  // than this fraction of the target graph is considered saturated by fake
  // links and skipped: a rational adversary knows real social networks
  // have density < 0.5 (Section 6.2), so a near-complete neighborhood
  // carries no matching signal. This is what pins the attack at its
  // distance-0 level against VW-CGA instead of producing empty candidate
  // sets (Figure 8). The default of 1.0 disables the heuristic; the
  // reconfigured attack (Section 6.2) sets it to 0.5 alongside
  // StripMajorityStrengthLinks.
  double saturation_fraction = 1.0;
  // Optional override of entity_attribute_match ("this function can be
  // configured by users"); when set it replaces the compiled MatchOptions
  // predicate everywhere: no CandidateIndex or profile rows are built, and
  // every query scans all auxiliary vertices.
  std::function<bool(const hin::Graph& target, hin::VertexId vt,
                     const hin::Graph& aux, hin::VertexId va)>
      entity_match_override;
  // Optional override of link_attribute_match (target strength, auxiliary
  // strength) -> bool. The Layer-1 degree check still runs: a perfect left
  // matching needs as many auxiliary neighbors as target neighbors under
  // any strength predicate.
  std::function<bool(hin::Strength, hin::Strength)> link_match_override;
};

// Observability counters for LinkMatch's two layers, snapshotted via
// Dehin::stats(). Every LinkMatch invocation lands in exactly one of the
// three buckets. Monotone across a Dehin's lifetime (reset with
// Dehin::ResetStats); deltas around an evaluation give per-run rates.
struct DehinStats {
  // Rejected by the Layer-1 degree check before any cache or bipartite
  // work (rejected pairs are never cached, so re-visits count again — the
  // check reads a few adjacency offsets, cheaper than a cache probe).
  uint64_t prefilter_rejects = 0;
  // Answered by the Layer-2 match cache (or the per-call fallback memo).
  uint64_t cache_hits = 0;
  // Went through the full candidate-set construction + Hopcroft-Karp test.
  uint64_t full_tests = 0;

  uint64_t TotalLinkMatchCalls() const {
    return prefilter_rejects + cache_hits + full_tests;
  }
  // Fraction of cache probes (calls passing the degree check) answered
  // from the cache.
  double CacheHitRate() const {
    const uint64_t probes = cache_hits + full_tests;
    return probes == 0 ? 0.0
                       : static_cast<double>(cache_hits) /
                             static_cast<double>(probes);
  }
  // Fraction of all LinkMatch calls the degree check rejected outright.
  double PrefilterRejectRate() const {
    const uint64_t total = TotalLinkMatchCalls();
    return total == 0 ? 0.0
                      : static_cast<double>(prefilter_rejects) /
                            static_cast<double>(total);
  }
};

// Counter delta (a - b), for before/after snapshots around one evaluation.
// The counters are monotone, so a well-ordered delta is nonnegative;
// subtracting a *later* snapshot from an earlier one (or snapshots that
// straddle a ResetStats) clamps at zero instead of silently wrapping to a
// huge unsigned value.
inline DehinStats operator-(DehinStats a, const DehinStats& b) {
  auto clamped_sub = [](uint64_t x, uint64_t y) { return x > y ? x - y : 0; };
  a.prefilter_rejects = clamped_sub(a.prefilter_rejects, b.prefilter_rejects);
  a.cache_hits = clamped_sub(a.cache_hits, b.cache_hits);
  a.full_tests = clamped_sub(a.full_tests, b.full_tests);
  return a;
}

// The DeHIN de-anonymization attack (Section 5): given the non-anonymized
// auxiliary graph G, de-anonymize entities of an anonymized target graph
// G' by profile matching plus recursive typed-neighborhood matching
// decided with Hopcroft-Karp maximum bipartite matching.
//
// Thread-safe for concurrent Deanonymize calls on one shared Dehin: the
// per-target-graph state (profile rows, shared match cache) is built under
// an internal mutex on first use, read-only afterwards, and held by
// shared_ptr — each Deanonymize call pins the state it resolved, so
// concurrent invalidation or replacement (stale-fingerprint rebuild,
// InvalidateTarget) can never free state another thread is still reading.
//
// Target graphs are recognized by address, so a target passed to
// Deanonymize must stay alive (and unchanged) for as long as this Dehin is
// used with it — do not destroy a target graph and reuse its storage for a
// different graph mid-lifetime. (A (num_vertices, num_edges) fingerprint
// invalidates stale state for the common rebuild-in-place patterns, but
// address reuse by an identically-sized different graph is undetectable —
// call InvalidateTarget before retiring a target graph to both drop its
// cached state and keep the per-target map from growing unboundedly.)
class Dehin {
 public:
  // `auxiliary` must outlive the Dehin.
  Dehin(const hin::Graph* auxiliary, DehinConfig config);

  // Algorithm 1, DeHIN(G, G', T_G*, v', n): returns the candidate set
  // C of auxiliary vertices matching target vertex `vt`, sorted
  // ascending. De-anonymization succeeds when the set is exactly the
  // target's true counterpart.
  std::vector<hin::VertexId> Deanonymize(const hin::Graph& target,
                                         hin::VertexId vt) const {
    return Deanonymize(target, vt, config_.max_distance);
  }

  // Same, with an explicit max distance n overriding the configured one —
  // lets one Dehin (and its candidate index) serve a whole distance sweep.
  std::vector<hin::VertexId> Deanonymize(const hin::Graph& target,
                                         hin::VertexId vt,
                                         int max_distance) const;

  // Cancellable variant for the attack service and interruptible batch
  // runs. The recursion polls `cancel` cooperatively — once per candidate
  // plus every LocalStats::kCancelCheckStride LinkMatch calls, so the
  // added cost is one relaxed load (and an occasional clock read) per
  // ~hundreds of dominated-pair tests — and returns
  // Status::DeadlineExceeded / Status::Cancelled instead of a partial
  // candidate set. Results computed after the stop flag flips are never
  // inserted into the match cache (their sub-answers may be truncated),
  // so an aborted call cannot poison later ones. A null `cancel` is the
  // plain uncancellable path.
  util::Result<std::vector<hin::VertexId>> Deanonymize(
      const hin::Graph& target, hin::VertexId vt, int max_distance,
      const util::CancelToken* cancel) const;

  // Knobs for the intra-query parallel candidate scan.
  struct ParallelScanOptions {
    // Pool to fan the scan out on; borrowed, not owned. nullptr selects
    // the process-wide exec::Executor::Global().
    exec::Executor* executor = nullptr;
    // Auxiliary vertices (or index candidates) per claimed grain; 0 picks
    // exec::DefaultGrain (about 8 grains per worker).
    size_t grain = 0;
    // Same cooperative-stop contract as the cancellable Deanonymize:
    // polled per grain claim and per candidate, returns
    // Status::DeadlineExceeded / Status::Cancelled, and never inserts
    // truncated results into the match cache.
    const util::CancelToken* cancel = nullptr;
  };

  // Intra-query parallel variant of Deanonymize: one target vertex, the
  // candidate scan fanned out across the executor's workers so a single
  // query can saturate the machine. The auxiliary vertex range (or, with
  // the candidate index, the index's serially-enumerated candidate pool)
  // is partitioned into grains claimed dynamically; each grain collects
  // accepted candidates into its own slot, and the slots are concatenated
  // in grain order and sorted, so the result is bit-identical to the
  // serial Deanonymize regardless of scheduling (LinkMatch is a pure
  // function of the two graphs and the config; see the differential
  // tests). On a single-worker executor this degrades to the serial
  // cancellable path.
  util::Result<std::vector<hin::VertexId>> DeanonymizeParallel(
      const hin::Graph& target, hin::VertexId vt, int max_distance,
      const ParallelScanOptions& options) const;
  util::Result<std::vector<hin::VertexId>> DeanonymizeParallel(
      const hin::Graph& target, hin::VertexId vt, int max_distance) const;

  const DehinConfig& config() const { return config_; }
  const hin::Graph& auxiliary() const { return *aux_; }

  // Incrementally absorbs one growth batch into the warm state, after the
  // auxiliary graph has been mutated in place by
  // hin::GraphBuilder::ApplyDelta (call order matters): the candidate
  // index recompiles the profile rows of O(|delta|) vertices and moves
  // their bucket entries, and every cached target state's shared match
  // cache is invalidated epoch-wise for the delta's d-hop closure (d = its
  // deepest memoized depth) instead of being flushed — untouched entries
  // keep hitting. Target graphs are unchanged by auxiliary growth, so
  // per-target rows and saturation limits stay valid. The caller must
  // guarantee exclusive access (no concurrent Deanonymize) for the
  // duration of the call; the attack service holds its warm-state lock
  // exclusively here.
  util::Status ApplyAuxDelta(const hin::GraphDelta& delta);

  // Snapshot of the acceleration counters accumulated so far.
  DehinStats stats() const;
  void ResetStats() const;

  // Drops the cached per-target state (profile rows, shared match cache)
  // for `target`, if any. Safe to call while other threads are mid-
  // Deanonymize on the same graph: they pinned their state and keep using
  // it; only the map entry is released here. Call this when retiring a
  // target graph so target_states_ cannot grow unboundedly across many
  // targets (and before reusing a graph object's address for a different
  // graph, which the fingerprint cannot always detect).
  void InvalidateTarget(const hin::Graph& target) const;

  // Number of target graphs with live cached state (observability; takes
  // the internal mutex).
  size_t num_cached_target_states() const;

 private:
  // Everything Deanonymize needs that is constant per target graph:
  // the saturation threshold, the profile rows, and the Layer-2 shared
  // cache. Built once on first use and cached by graph
  // address.
  struct TargetState {
    size_t saturation_limit = 0;
    // The target's vertices compiled over the index's dictionary (empty
    // under entity_match_override).
    ProfileRows rows;
    std::unique_ptr<MatchCache> cache;  // null when shared cache is off
    // Weak identity fingerprint to invalidate stale state if a different
    // graph reuses the address.
    size_t num_vertices = 0;
    size_t num_edges = 0;
  };

  // Per-call counter accumulator, flushed to the atomics once per
  // Deanonymize so the recursion does not touch shared cache lines. Also
  // carries the call's cancellation state: the token to poll (null = not
  // cancellable), a countdown so the clock is only read every
  // kCancelCheckStride LinkMatch calls, and the sticky stop flag — once
  // set, every remaining LinkMatch returns immediately without caching.
  struct LocalStats {
    static constexpr uint32_t kCancelCheckStride = 256;

    uint64_t prefilter_rejects = 0;
    uint64_t cache_hits = 0;
    uint64_t full_tests = 0;
    const util::CancelToken* cancel = nullptr;
    uint32_t cancel_countdown = kCancelCheckStride;
    bool stopped = false;
  };

  // Resolves (building on first use) the state for `target`. The returned
  // shared_ptr pins the state for the caller's whole evaluation, so a
  // concurrent rebuild or InvalidateTarget only unlinks it from the map.
  std::shared_ptr<const TargetState> GetTargetState(
      const hin::Graph& target) const;

  // Algorithm 2, link_match(n, v', v, ...): recursive typed-neighborhood
  // comparison, memoized in `cache` (the shared per-target cache or a
  // per-call local one). Root calls (is_root) skip the memo entirely: a
  // depth-n entry could only ever be re-probed by another root call on the
  // same (vt, va), which a candidate scan never issues, so probing and
  // inserting there is pure overhead. Recursive calls at depth < n are the
  // ones that repeat across candidates and targets.
  bool LinkMatch(int depth, const hin::Graph& target, hin::VertexId vt,
                 hin::VertexId va, const TargetState& state,
                 MatchCache* cache, LocalStats* local, bool is_root) const;

  // Layer 1, the degree check: every (link type, direction) whose target
  // run is neither empty nor saturated needs an auxiliary run at least as
  // long, since a perfect left matching gives each target neighbor its own
  // auxiliary neighbor. False proves the full test would reject.
  bool DegreesAdmit(const hin::Graph& target, hin::VertexId vt,
                    hin::VertexId va, size_t saturation_limit) const;

  // Cumulative closure lists for cache invalidation: element d-1 holds
  // every auxiliary vertex within distance d of the delta's touched set
  // (new vertices, edge endpoints, attr-bumped vertices), BFS'd
  // undirected over the configured link types.
  std::vector<std::vector<hin::VertexId>> DirtyClosure(
      const hin::GraphDelta& delta, size_t radius) const;

  // entity_attribute_match: the compiled rows, or the override.
  bool EntityMatch(const hin::Graph& target, const TargetState& state,
                   hin::VertexId vt, hin::VertexId va) const {
    return index_ != nullptr
               ? index_->Matches(state.rows, vt, va)
               : config_.entity_match_override(target, vt, *aux_, va);
  }
  bool StrengthMatch(hin::Strength target_strength,
                     hin::Strength aux_strength) const;

  // Walk the index's buckets for candidates rather than scan every row.
  bool walks_index() const {
    return index_ != nullptr && config_.use_candidate_index;
  }

  const hin::Graph* aux_;
  DehinConfig config_;
  // The compiled profile predicate; null under entity_match_override. Its
  // dictionary is written by target-state builds and deltas, both under
  // target_mu_.
  std::unique_ptr<CandidateIndex> index_;

  mutable std::mutex target_mu_;
  mutable std::unordered_map<const hin::Graph*,
                             std::shared_ptr<const TargetState>>
      target_states_;

  // Acceleration counters, kept per instance (so differently-configured
  // Dehins in one process stay separable, e.g. in the ablation benches) but
  // backed by the telemetry layer's striped lock-free obs::Counter instead
  // of bare atomics. Flushes additionally mirror into the process-wide
  // obs::MetricsRegistry under "dehin/...", which is what --metrics-json
  // and the bench metrics block export.
  mutable obs::Counter prefilter_rejects_{"dehin/prefilter_rejects"};
  mutable obs::Counter cache_hits_{"dehin/cache_hits"};
  mutable obs::Counter full_tests_{"dehin/full_tests"};
};

// Section 6.2 reconfiguration: returns a copy of `graph` with every link
// whose strength equals its link type's majority (most frequent) strength
// removed. Against Complete Graph Anonymity this strips the constant-weight
// fake links (social networks have density < 0.5, so fakes are the
// majority) at the cost of also dropping real links that share the value.
util::Result<hin::Graph> StripMajorityStrengthLinks(const hin::Graph& graph);

}  // namespace hinpriv::core

#endif  // HINPRIV_CORE_DEHIN_H_
