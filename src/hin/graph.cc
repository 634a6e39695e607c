#include "hin/graph.h"

#include <algorithm>
#include <string>

#include "hin/graph_delta.h"

namespace hinpriv::hin {

namespace {

// One edge add of a delta, bucketed by link type.
struct EdgeAdd {
  VertexId src;
  VertexId dst;
  Strength strength;
};

// Runs an adjacency holds besides the shared empty one.
size_t OwnRuns(const internal::GraphOverlay::Adjacency& adj) {
  return adj.runs.empty() ? 0 : adj.runs.size() - 1;
}

}  // namespace

size_t Graph::TotalOutDegree(VertexId v) const {
  size_t total = 0;
  for (LinkTypeId lt = 0; lt < out_.size(); ++lt) total += OutDegree(lt, v);
  return total;
}

Strength Graph::EdgeStrength(LinkTypeId lt, VertexId src, VertexId dst) const {
  const auto edges = OutEdges(lt, src);
  auto it = std::lower_bound(
      edges.begin(), edges.end(), dst,
      [](const Edge& e, VertexId v) { return e.neighbor < v; });
  if (it != edges.end() && it->neighbor == dst) return it->strength;
  return 0;
}

Graph::OverlayStats Graph::overlay_stats() const {
  OverlayStats stats;
  if (overlay_ == nullptr) return stats;
  for (const auto* side : {&overlay_->out, &overlay_->in}) {
    for (const internal::GraphOverlay::Adjacency& adj : *side) {
      stats.patched_runs += OwnRuns(adj);
      stats.patched_edges += adj.run_edges;
    }
  }
  stats.compactions = overlay_->compactions;
  return stats;
}

util::Status Graph::ApplyDelta(const GraphDelta& delta) {
  HINPRIV_RETURN_IF_ERROR(ValidateDelta(*this, delta));
  const size_t n_old = num_vertices();
  const size_t num_links = num_link_types();

  // Pre-pass (no mutation yet): bucket delta edges per link type, sort by
  // (src, dst), and reject duplicates that non-growable link types cannot
  // absorb, so a failed apply leaves the graph untouched.
  std::vector<std::vector<EdgeAdd>> adds(num_links);
  for (const GraphDelta::EdgeAdd& e : delta.edge_adds) {
    adds[e.link].push_back(EdgeAdd{e.src, e.dst, e.strength});
  }
  for (size_t lt = 0; lt < num_links; ++lt) {
    auto& edges = adds[lt];
    std::sort(edges.begin(), edges.end(),
              [](const EdgeAdd& a, const EdgeAdd& b) {
                return a.src != b.src ? a.src < b.src : a.dst < b.dst;
              });
    const LinkTypeDef& def = schema_.link_type(static_cast<LinkTypeId>(lt));
    if (def.growable_strength) continue;
    for (size_t i = 0; i < edges.size(); ++i) {
      if (i > 0 && edges[i].src == edges[i - 1].src &&
          edges[i].dst == edges[i - 1].dst) {
        return util::Status::InvalidArgument(
            "duplicate delta edge on non-growable link type '" + def.name +
            "'");
      }
      if (edges[i].src < n_old &&
          HasEdge(static_cast<LinkTypeId>(lt), edges[i].src, edges[i].dst)) {
        return util::Status::InvalidArgument(
            "delta edge duplicates an existing edge on non-growable link "
            "type '" +
            def.name + "'");
      }
    }
  }
  if (delta.empty()) return util::Status::OK();

  // The base is never written: the first delta copies the per-vertex
  // columns to the overlay (O(V), once); every delta appends its vertices
  // to the copies and applies its bumps there.
  if (overlay_ == nullptr) {
    overlay_ = std::make_unique<internal::GraphOverlay>();
    overlay_->vtype.assign(vtype_.begin(), vtype_.end());
    overlay_->dense_idx.assign(dense_idx_.begin(), dense_idx_.end());
    overlay_->attrs.resize(attrs_.size());
    for (size_t t = 0; t < attrs_.size(); ++t) {
      for (const std::span<const AttrValue> column : attrs_[t]) {
        overlay_->attrs[t].emplace_back(column.begin(), column.end());
      }
    }
    overlay_->out.resize(num_links);
    overlay_->in.resize(num_links);
  }
  internal::GraphOverlay& overlay = *overlay_;
  for (const GraphDelta::NewVertex& nv : delta.new_vertices) {
    overlay.vtype.push_back(nv.type);
    overlay.dense_idx.push_back(static_cast<uint32_t>(type_counts_[nv.type]++));
    auto& columns = overlay.attrs[nv.type];
    for (size_t a = 0; a < columns.size(); ++a) {
      columns[a].push_back(nv.attrs[a]);
    }
  }
  for (const GraphDelta::AttrBump& b : delta.attr_bumps) {
    overlay.attrs[overlay.vtype[b.v]][b.attr][overlay.dense_idx[b.v]] +=
        b.delta;
  }
  vtype_ = overlay.vtype;
  dense_idx_ = overlay.dense_idx;
  for (size_t t = 0; t < attrs_.size(); ++t) {
    for (size_t a = 0; a < attrs_[t].size(); ++a) {
      attrs_[t][a] = overlay.attrs[t][a];
    }
  }

  // No CSR covers a new vertex, so every adjacency patches it, with the
  // empty run until an edge add below merges into it.
  const size_t n_new = num_vertices();
  for (size_t lt = 0; lt < num_links; ++lt) {
    for (size_t v = n_old; v < n_new; ++v) {
      for (const bool incoming : {false, true}) {
        SetRun(incoming, static_cast<LinkTypeId>(lt),
               static_cast<VertexId>(v), {});
      }
    }
  }

  // Merge each touched vertex's adds into its current run, out-runs from
  // the (src, dst) order and in-runs from the (dst, src) order. Runs stay
  // neighbor-sorted and strengths fold by summing, so every run is
  // exactly the one GraphBuilder::Build() would emit over the union
  // multiset.
  std::vector<Edge> group;
  auto merge_runs = [&](LinkTypeId lt, bool incoming,
                        const std::vector<EdgeAdd>& edges) {
    size_t gained = 0;
    for (size_t i = 0; i < edges.size();) {
      const VertexId v = incoming ? edges[i].dst : edges[i].src;
      group.clear();
      for (; i < edges.size() && (incoming ? edges[i].dst : edges[i].src) == v;
           ++i) {
        group.push_back(
            Edge{incoming ? edges[i].src : edges[i].dst, edges[i].strength});
      }
      gained += MergeRun(incoming, lt, v, group);
    }
    return gained;
  };
  for (size_t l = 0; l < num_links; ++l) {
    const auto lt = static_cast<LinkTypeId>(l);
    auto& edges = adds[lt];
    num_edges_ += merge_runs(lt, /*incoming=*/false, edges);
    std::sort(edges.begin(), edges.end(),
              [](const EdgeAdd& a, const EdgeAdd& b) {
                return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
              });
    merge_runs(lt, /*incoming=*/true, edges);
    CompactIfLarge(/*incoming=*/false, lt);
    CompactIfLarge(/*incoming=*/true, lt);
  }
  return util::Status::OK();
}

void Graph::SetRun(bool incoming, LinkTypeId lt, VertexId v,
                   std::vector<Edge> run) {
  internal::GraphOverlay::Adjacency& adj =
      (incoming ? overlay_->in : overlay_->out)[lt];
  if (adj.runs.empty()) adj.runs.emplace_back();  // the kEmptyRun row
  if (adj.patch_row.size() < num_vertices()) {
    adj.patch_row.resize(num_vertices(), internal::kNoPatch);
  }
  uint32_t& row = adj.patch_row[v];
  adj.run_edges += run.size();
  if (row != internal::kNoPatch && row != internal::kEmptyRun) {
    adj.run_edges -= adj.runs[row].size();
    adj.runs[row] = std::move(run);
  } else if (run.empty()) {
    row = internal::kEmptyRun;
  } else {
    row = static_cast<uint32_t>(adj.runs.size());
    adj.runs.push_back(std::move(run));
  }
  CsrView& view = (incoming ? in_ : out_)[lt];
  view.patch_row = adj.patch_row;
  view.runs = adj.runs.data();
}

size_t Graph::MergeRun(bool incoming, LinkTypeId lt, VertexId v,
                       std::span<const Edge> adds) {
  internal::GraphOverlay::Adjacency& adj =
      (incoming ? overlay_->in : overlay_->out)[lt];
  const uint32_t row =
      v < adj.patch_row.size() ? adj.patch_row[v] : internal::kNoPatch;
  std::vector<Edge> run;
  if (row != internal::kNoPatch && row != internal::kEmptyRun) {
    run = std::move(adj.runs[row]);
    adj.run_edges -= run.size();
  } else {
    const std::span<const Edge> current = Run((incoming ? in_ : out_)[lt], v);
    run.reserve(current.size() + adds.size());
    run.assign(current.begin(), current.end());
  }
  // Fold onto neighbors the run already has; the rest are inserts, sorted
  // and distinct like `adds`.
  std::vector<Edge> inserts;
  for (size_t i = 0; i < adds.size();) {
    Edge e = adds[i++];
    while (i < adds.size() && adds[i].neighbor == e.neighbor) {
      e.strength += adds[i++].strength;
    }
    const auto it = std::lower_bound(
        run.begin(), run.end(), e.neighbor,
        [](const Edge& a, VertexId n) { return a.neighbor < n; });
    if (it != run.end() && it->neighbor == e.neighbor) {
      it->strength += e.strength;
    } else {
      inserts.push_back(e);
    }
  }
  // Merge the inserts in from the back: only entries past the first insert
  // point move, so appending new vertices' edges touches nothing else.
  size_t r = run.size();
  run.resize(run.size() + inserts.size());
  size_t w = run.size();
  for (size_t j = inserts.size(); j-- > 0;) {
    while (r > 0 && run[r - 1].neighbor > inserts[j].neighbor) {
      run[--w] = run[--r];
    }
    run[--w] = inserts[j];
  }
  SetRun(incoming, lt, v, std::move(run));
  return inserts.size();
}

void Graph::CompactIfLarge(bool incoming, LinkTypeId lt) {
  internal::GraphOverlay::Adjacency& adj =
      (incoming ? overlay_->in : overlay_->out)[lt];
  const size_t n = num_vertices();
  if (OwnRuns(adj) <= n / 4) return;
  CsrView& view = (incoming ? in_ : out_)[lt];
  // The runs are already merged, so the fold is one copy in vertex order.
  std::vector<uint64_t> offsets(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + Run(view, v).size();
  }
  std::vector<Edge> edges;
  edges.reserve(offsets[n]);
  for (VertexId v = 0; v < n; ++v) {
    const std::span<const Edge> run = Run(view, v);
    edges.insert(edges.end(), run.begin(), run.end());
  }
  adj.offsets = std::move(offsets);
  adj.edges = std::move(edges);
  adj.patch_row = {};
  adj.runs = {};
  adj.run_edges = 0;
  view = CsrView{adj.offsets, adj.edges, {}, nullptr};
  ++overlay_->compactions;
}

}  // namespace hinpriv::hin
