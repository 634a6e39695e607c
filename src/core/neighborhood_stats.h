#ifndef HINPRIV_CORE_NEIGHBORHOOD_STATS_H_
#define HINPRIV_CORE_NEIGHBORHOOD_STATS_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/dominance_kernels.h"
#include "hin/graph.h"
#include "hin/types.h"
#include "util/simd.h"

namespace hinpriv::hin {
struct GraphDelta;
}  // namespace hinpriv::hin

namespace hinpriv::core {

// Precomputed per-vertex neighborhood statistics for the link types (and
// directions) a DeHIN configuration utilizes: for every vertex and every
// (link type, direction) slot, the neighborhood's strength multiset sorted
// ascending. Built once per graph (O(E log deg)) and then queried in O(1)
// per slot, this backs the Layer-1 prefilter of Dehin::LinkMatch — a sound
// necessary-condition test that rejects (target, candidate) pairs without
// touching the O(|T|·|A|) bipartite candidate-set construction.
//
// Slot layout: link type i of the configured list occupies slot i (out
// direction) when in-edges are unused, or slots 2i (out) / 2i+1 (in) when
// they are. Two stats built from the same configuration therefore agree on
// slot meaning, which is all the prefilter needs.
//
// Storage is two contiguous arenas shared by every slot — one offsets
// array (slot-major, absolute into the strengths arena) and one strengths
// array — both util::kSimdAlignment-aligned with zeroed padding, so the
// dominance kernels (core/dominance_kernels.h) can run full-width loads at
// any span offset without faulting.
//
// Growth deltas are absorbed incrementally (ApplyDelta): each batch
// appends rows for the vertices it touches to an append-only patch table
// (one aligned arena per batch, same alignment guarantees), while the
// untouched majority keeps reading the original arenas. When the patch
// table's rows, orphaned ones included, cross a threshold the stats
// compact back into one full build.
class NeighborhoodStats {
 public:
  NeighborhoodStats(const hin::Graph& graph,
                    const std::vector<hin::LinkTypeId>& link_types,
                    bool use_in_edges);

  NeighborhoodStats(const NeighborhoodStats&) = delete;
  NeighborhoodStats& operator=(const NeighborhoodStats&) = delete;

  size_t num_slots() const { return num_slots_; }

  // The strength multiset of v's neighborhood in `slot`, sorted ascending.
  // The span's size is the per-type degree, so no separate degree query is
  // needed.
  std::span<const hin::Strength> SortedStrengths(size_t slot,
                                                 hin::VertexId v) const {
    if (v < patch_row_.size() && patch_row_[v] != kNoPatch) {
      const PatchSpan& patch =
          patch_spans_[size_t{patch_row_[v]} * num_slots_ + slot];
      return {patch.data, patch.size};
    }
    const uint64_t* off = SlotOffsets(slot) + v;
    return {strengths_.data() + off[0], off[1] - off[0]};
  }

  // Batched Layer-1 test for one (vt, va) pair: every slot's target span
  // (this object, vertex vt) must be dominated by the same slot's
  // auxiliary span (aux_stats, vertex va) under `dominates` — the kernel
  // Dehin resolved once at startup, so the per-slot loop is two pointer
  // fetches and one indirect call, with no per-slot dispatch. Slots whose
  // target span is empty or larger than `saturation_limit` (fake-link
  // saturation, see DehinConfig) are skipped, mirroring LinkMatch. False
  // proves LinkMatch would reject the pair.
  bool PrefilterPass(const NeighborhoodStats& aux_stats, hin::VertexId vt,
                     hin::VertexId va, size_t saturation_limit,
                     DominanceFn dominates) const {
    for (size_t slot = 0; slot < num_slots_; ++slot) {
      const std::span<const hin::Strength> t = SortedStrengths(slot, vt);
      if (t.empty() || t.size() > saturation_limit) continue;
      const std::span<const hin::Strength> a =
          aux_stats.SortedStrengths(slot, va);
      if (!dominates(t.data(), t.size(), a.data(), a.size())) {
        return false;
      }
    }
    return true;
  }

  // Incrementally absorbs one growth batch after the graph has been
  // mutated by hin::GraphBuilder::ApplyDelta. Only vertices whose strength
  // multisets can change — new vertices, sources of added edges, and
  // their destinations when in-edge slots exist (attr bumps do not touch
  // strengths) — get their slots recomputed, into one fresh row each
  // appended to the patch table; the base arenas and the rows of earlier
  // batches stay untouched, so cost is proportional to the touched set's
  // degree sum, not E or the patched set. A vertex touched again gets a
  // fresh row and its old row is orphaned. Once the table holds more rows
  // than ~1/4 of the graph's vertex count, orphans included, the stats
  // compact into a fresh full build (amortized O(E) every O(V) appended
  // rows).
  void ApplyDelta(const hin::Graph& graph, const hin::GraphDelta& delta);

  // Observability for tests and the delta bench: how many vertices read
  // from the patch table, how many rows it holds (orphans included), and
  // how many vertices the base arenas cover.
  size_t num_patched() const { return patched_vertices_; }
  size_t num_patch_rows() const { return patch_rows_; }
  size_t base_vertices() const { return base_vertices_; }

  // Necessary condition for Algorithm 2's per-type acceptance test: a
  // perfect left matching assigns each target edge a distinct auxiliary
  // edge whose strength passes LinkStrengthMatch. Under growth-aware
  // (aux >= target) semantics that requires the top-|T| auxiliary strengths
  // to dominate the sorted target strengths element-wise; under exact
  // semantics it requires multiset containment. Both are decided by one
  // merged scan over the sorted spans, O(|T| + |A|). Returns true when a
  // matching is still possible (the pair must proceed to the full test);
  // false is a proof that Dehin::LinkMatch would reject.
  //
  // This is the scalar reference the SIMD tiers in dominance_kernels.cc
  // are differentially pinned against.
  static bool StrengthMultisetDominates(
      std::span<const hin::Strength> target_sorted,
      std::span<const hin::Strength> aux_sorted, bool growth_aware);

 private:
  static constexpr uint32_t kNoPatch = std::numeric_limits<uint32_t>::max();

  // Full (re)build of the base arenas from `graph`; clears the patch table.
  void BuildFull(const hin::Graph& graph);

  // Offsets of `slot`: base_vertices_ + 1 absolute positions into the
  // shared strengths arena. Valid for unpatched vertices only (every
  // vertex >= base_vertices_ is patched by construction).
  const uint64_t* SlotOffsets(size_t slot) const {
    return offsets_.data() + slot * offsets_stride_;
  }

  std::vector<hin::LinkTypeId> link_types_;
  bool use_in_edges_ = false;

  size_t num_slots_ = 0;
  size_t base_vertices_ = 0;   // vertex count at the last full build
  size_t offsets_stride_ = 0;  // base_vertices_ + 1
  util::AlignedBuffer<uint64_t> offsets_;
  util::AlignedBuffer<hin::Strength> strengths_;

  // The edges behind `slot` of v: link type link_types_[slot / 2] (or
  // [slot] without in-edges), in-edges on odd slots when in-edges are used.
  std::span<const hin::Edge> SlotEdges(const hin::Graph& graph, size_t slot,
                                       hin::VertexId v) const;

  // Patch table, append-only: row r's span for `slot` is
  // patch_spans_[r * num_slots_ + slot], pointing into one of
  // patch_blocks_ (one arena per batch, never reallocated). patch_row_
  // maps vertex id -> its current row (kNoPatch when the base arenas are
  // current).
  struct PatchSpan {
    const hin::Strength* data;
    size_t size;
  };
  size_t patch_rows_ = 0;
  size_t patched_vertices_ = 0;
  std::vector<uint32_t> patch_row_;
  std::vector<PatchSpan> patch_spans_;
  std::vector<util::AlignedBuffer<hin::Strength>> patch_blocks_;
};

}  // namespace hinpriv::core

#endif  // HINPRIV_CORE_NEIGHBORHOOD_STATS_H_
