#include "core/neighborhood_stats.h"

#include <algorithm>

#include "hin/graph_delta.h"

namespace hinpriv::core {

NeighborhoodStats::NeighborhoodStats(
    const hin::Graph& graph, const std::vector<hin::LinkTypeId>& link_types,
    bool use_in_edges)
    : link_types_(link_types), use_in_edges_(use_in_edges) {
  num_slots_ = link_types_.size() * (use_in_edges_ ? 2 : 1);
  BuildFull(graph);
}

std::span<const hin::Edge> NeighborhoodStats::SlotEdges(
    const hin::Graph& graph, size_t slot, hin::VertexId v) const {
  const hin::LinkTypeId lt = link_types_[use_in_edges_ ? slot / 2 : slot];
  return use_in_edges_ && slot % 2 == 1 ? graph.InEdges(lt, v)
                                        : graph.OutEdges(lt, v);
}

void NeighborhoodStats::BuildFull(const hin::Graph& graph) {
  const size_t n = graph.num_vertices();
  base_vertices_ = n;
  offsets_stride_ = n + 1;
  offsets_.Reset(num_slots_ * offsets_stride_);

  // Pass 1: per-slot degrees -> one absolute offset table over the shared
  // strengths arena (slot boundaries are just where the previous slot's
  // running total left off).
  uint64_t total = 0;
  for (size_t slot = 0; slot < num_slots_; ++slot) {
    uint64_t* off = offsets_.data() + slot * offsets_stride_;
    for (hin::VertexId v = 0; v < n; ++v) {
      off[v] = total;
      total += SlotEdges(graph, slot, v).size();
    }
    off[n] = total;
  }

  // Pass 2: fill and sort each vertex's strength run in place.
  strengths_.Reset(total);
  for (size_t slot = 0; slot < num_slots_; ++slot) {
    const uint64_t* off = SlotOffsets(slot);
    for (hin::VertexId v = 0; v < n; ++v) {
      const auto edges = SlotEdges(graph, slot, v);
      hin::Strength* out = strengths_.data() + off[v];
      for (size_t i = 0; i < edges.size(); ++i) out[i] = edges[i].strength;
      std::sort(out, out + edges.size());
    }
  }

  // A full build supersedes any patch state.
  patch_rows_ = 0;
  patched_vertices_ = 0;
  patch_row_.clear();
  patch_spans_.clear();
  patch_blocks_.clear();
}

void NeighborhoodStats::ApplyDelta(const hin::Graph& graph,
                                   const hin::GraphDelta& delta) {
  const size_t n = graph.num_vertices();

  // Touched set = the vertices whose strength multisets can change: new
  // vertices, the source of every added edge (its out-slots), and, when
  // in-edge slots exist, the destination too. Attribute bumps never
  // change neighborhood strengths, so they are not part of it.
  std::vector<hin::VertexId> touched;
  touched.reserve(n - delta.base_num_vertices + 2 * delta.edge_adds.size());
  for (size_t v = delta.base_num_vertices; v < n; ++v) {
    touched.push_back(static_cast<hin::VertexId>(v));
  }
  for (const hin::GraphDelta::EdgeAdd& e : delta.edge_adds) {
    touched.push_back(e.src);
    if (use_in_edges_) touched.push_back(e.dst);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Compaction: once the table holds more rows than a quarter of the
  // graph, orphaned rows included, fold everything back into one full
  // build — amortized O(E) per O(V) appended rows, and the hot path goes
  // back to mostly-base reads.
  if (patch_rows_ + touched.size() > n / 4) {
    BuildFull(graph);
    return;
  }

  // One aligned arena holds the batch's rows, each row's slots in order,
  // so the zero-padded alignment contract the dominance kernels rely on
  // holds for every span in it.
  std::vector<std::span<const hin::Edge>> runs;
  runs.reserve(touched.size() * num_slots_);
  uint64_t total = 0;
  for (hin::VertexId v : touched) {
    for (size_t slot = 0; slot < num_slots_; ++slot) {
      runs.push_back(SlotEdges(graph, slot, v));
      total += runs.back().size();
    }
  }
  util::AlignedBuffer<hin::Strength> block(total);
  patch_row_.resize(n, kNoPatch);
  hin::Strength* out = block.data();
  auto run = runs.begin();
  for (hin::VertexId v : touched) {
    if (patch_row_[v] == kNoPatch) ++patched_vertices_;
    patch_row_[v] = static_cast<uint32_t>(patch_rows_++);
    for (size_t slot = 0; slot < num_slots_; ++slot) {
      const std::span<const hin::Edge> edges = *run++;
      for (size_t i = 0; i < edges.size(); ++i) out[i] = edges[i].strength;
      std::sort(out, out + edges.size());
      patch_spans_.push_back(PatchSpan{out, edges.size()});
      out += edges.size();
    }
  }
  patch_blocks_.push_back(std::move(block));
}

bool NeighborhoodStats::StrengthMultisetDominates(
    std::span<const hin::Strength> target_sorted,
    std::span<const hin::Strength> aux_sorted, bool growth_aware) {
  const size_t k = target_sorted.size();
  const size_t m = aux_sorted.size();
  if (m < k) return false;
  if (growth_aware) {
    // The i-th smallest of the k largest auxiliary strengths dominates the
    // i-th smallest strength of ANY k-subset, so if even that assignment
    // fails somewhere, no injective aux >= target assignment exists.
    for (size_t i = 0; i < k; ++i) {
      if (aux_sorted[m - k + i] < target_sorted[i]) return false;
    }
    return true;
  }
  // Exact semantics: every target strength needs a distinct equal auxiliary
  // strength, i.e. multiset containment; merged scan over the sorted spans.
  size_t j = 0;
  for (size_t i = 0; i < k; ++i) {
    while (j < m && aux_sorted[j] < target_sorted[i]) ++j;
    if (j == m || aux_sorted[j] != target_sorted[i]) return false;
    ++j;
  }
  return true;
}

}  // namespace hinpriv::core
