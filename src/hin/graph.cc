#include "hin/graph.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "hin/graph_delta.h"

namespace hinpriv::hin {

namespace internal {

// One folded add (distinct neighbor, summed strengths) placed in the run
// it merges into: `pos` indexes the run's first entry whose neighbor is
// not below the add's, and `fold` says that entry is the add's neighbor,
// so the add sums into it rather than inserting before it.
struct PlacedAdd {
  Edge edge;
  uint32_t pos = 0;
  bool fold = false;
};

// One (link type, direction) adjacency's share of a batch.
struct AdjacencyBatch {
  // One vertex the batch touches here, with adds[first, last) its adds.
  struct RunEdit {
    VertexId v = kInvalidVertex;
    uint32_t first = 0, last = 0;
    uint32_t inserts = 0;  // adds that are not folds
    // v's own run row, or kNoPatch while v has none (its run is the CSR's,
    // the shared empty one, or, for a new vertex, not there yet).
    uint32_t row = kNoPatch;
    // The merged run the commit installs, at exact size for a vertex
    // without a run of its own and at doubled capacity for an own run
    // without room for the inserts; empty when the commit merges into an
    // own run in place. After the commit, the run it replaced.
    std::vector<Edge> run;
  };

  std::vector<PlacedAdd> adds;  // grouped by vertex, neighbor-sorted
  std::vector<RunEdit> edits;   // in vertex order
  size_t gained = 0;            // entries the adjacency gains
  // The commit writes the patch table: the batch adds vertices or runs.
  bool needs_rows = false;
  // Copies with the room the commit needs, made when the patch table or
  // the run table lacks it (capacity 0: the table has the room). After
  // the commit, the tables they replaced.
  std::vector<uint32_t> patch_row;
  std::vector<std::vector<Edge>> runs;
  // When the batch takes the adjacency past V/4 runs of its own: the CSR
  // and the merged runs folded into one fresh CSR. After the commit, the
  // heap CSR it replaced (empty if the base arena's).
  bool compact = false;
  std::vector<uint64_t> offsets;
  std::vector<Edge> edges;
};

// One per-vertex column's share of a batch: the values the new vertices
// append, and a copy of the column with room for them when it has none
// (capacity 0: it has the room). After the commit, the column it replaced.
template <typename T>
struct ColumnAppend {
  std::vector<T> tail;
  std::vector<T> regrown;
};

struct PreparedBatch {
  // The graph and the state of it the batch was built against.
  const Graph* graph = nullptr;
  size_t num_vertices = 0;
  uint64_t commits = 0;
  bool empty = true;
  // The first delta's overlay, its columns copied with room; null after.
  std::unique_ptr<GraphOverlay> overlay;
  ColumnAppend<EntityTypeId> vtype;
  ColumnAppend<uint32_t> dense_idx;
  std::vector<std::vector<ColumnAppend<AttrValue>>> attrs;  // [type][attr]
  struct Bump {
    EntityTypeId type;
    AttributeId attr;
    uint32_t dense;
    AttrValue delta;
  };
  std::vector<Bump> bumps;
  std::vector<size_t> type_counts;  // after the batch
  std::vector<AdjacencyBatch> out;  // one per link type
  std::vector<AdjacencyBatch> in;
  size_t edges_gained = 0;
};

}  // namespace internal

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

// The adjacency of a graph no delta has touched yet.
const internal::GraphOverlay::Adjacency kUntouched{};

// Capacity for `needed` entries in a table that holds `size`: libstdc++'s
// growth rule, so a table grows by doubling as it would on its own.
size_t Room(size_t size, size_t needed) {
  return std::max(needed, 2 * size);
}

// `column` copied with room for `extra` more entries (none when 0).
template <typename T>
std::vector<T> CopyWithRoom(std::span<const T> column, size_t extra) {
  std::vector<T> copy;
  copy.reserve(extra == 0 ? column.size()
                          : Room(column.size(), column.size() + extra));
  copy.assign(column.begin(), column.end());
  return copy;
}

// Plans the commit's append to `column`: a copy with room if it has none.
template <typename T>
void PlanAppend(const std::vector<T>& column,
                internal::ColumnAppend<T>* append) {
  if (column.size() + append->tail.size() > column.capacity()) {
    append->regrown = CopyWithRoom<T>(column, append->tail.size());
  }
}

template <typename T>
void CommitAppend(std::vector<T>* column, internal::ColumnAppend<T>* append) {
  if (append->regrown.capacity() != 0) column->swap(append->regrown);
  column->insert(column->end(), append->tail.begin(), append->tail.end());
}

// Groups one adjacency's adds by the vertex whose run they join (`adds`
// is sorted by that vertex, then by neighbor) and folds repeats.
void GroupAdds(std::span<const EdgeAdd> adds, bool incoming,
               internal::AdjacencyBatch* batch) {
  for (size_t i = 0; i < adds.size();) {
    const VertexId v = incoming ? adds[i].dst : adds[i].src;
    internal::AdjacencyBatch::RunEdit& edit = batch->edits.emplace_back();
    edit.v = v;
    edit.first = static_cast<uint32_t>(batch->adds.size());
    for (; i < adds.size() && (incoming ? adds[i].dst : adds[i].src) == v;
         ++i) {
      const Edge e{incoming ? adds[i].src : adds[i].dst, adds[i].strength};
      if (batch->adds.size() > edit.first &&
          batch->adds.back().edge.neighbor == e.neighbor) {
        batch->adds.back().edge.strength += e.strength;
      } else {
        batch->adds.push_back(internal::PlacedAdd{e});
      }
    }
    edit.last = static_cast<uint32_t>(batch->adds.size());
  }
}

// Places `adds` in `run`; returns how many are inserts.
uint32_t PlaceAdds(std::span<const Edge> run,
                   std::span<internal::PlacedAdd> adds) {
  uint32_t inserts = 0;
  auto from = run.begin();
  for (internal::PlacedAdd& add : adds) {
    from = std::lower_bound(
        from, run.end(), add.edge.neighbor,
        [](const Edge& a, VertexId n) { return a.neighbor < n; });
    add.pos = static_cast<uint32_t>(from - run.begin());
    add.fold = from != run.end() && from->neighbor == add.edge.neighbor;
    inserts += add.fold ? 0 : 1;
  }
  return inserts;
}

// Appends `run` with its placed adds merged in to `out`.
void AppendMerged(std::span<const Edge> run,
                  std::span<const internal::PlacedAdd> adds,
                  std::vector<Edge>* out) {
  size_t r = 0;
  for (const internal::PlacedAdd& add : adds) {
    out->insert(out->end(), run.begin() + r, run.begin() + add.pos);
    r = add.pos;
    if (add.fold) {
      out->push_back(
          Edge{run[r].neighbor, run[r].strength + add.edge.strength});
      ++r;
    } else {
      out->push_back(add.edge);
    }
  }
  out->insert(out->end(), run.begin() + r, run.end());
}

// Merges placed adds into `run` where it lies; it has room for `inserts`.
// Folds write their entry; each insert shifts the tail behind it once,
// from the back, so every entry moves at most once.
void MergeInPlace(std::span<const internal::PlacedAdd> adds, uint32_t inserts,
                  std::vector<Edge>* run) {
  size_t end = run->size();
  run->resize(end + inserts);
  Edge* data = run->data();
  for (auto add = adds.rbegin(); add != adds.rend(); ++add) {
    if (add->fold) {
      data[add->pos].strength += add->edge.strength;
      continue;
    }
    std::memmove(data + add->pos + inserts, data + add->pos,
                 (end - add->pos) * sizeof(Edge));
    end = add->pos;
    --inserts;
    data[add->pos + inserts] = add->edge;
  }
}

}  // namespace

PreparedDelta::PreparedDelta(std::unique_ptr<internal::PreparedBatch> batch)
    : batch_(std::move(batch)) {}
PreparedDelta::PreparedDelta(PreparedDelta&&) noexcept = default;
PreparedDelta& PreparedDelta::operator=(PreparedDelta&&) noexcept = default;
PreparedDelta::~PreparedDelta() = default;

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

util::Result<PreparedDelta> Graph::PrepareDelta(const GraphDelta& delta) const {
  HINPRIV_RETURN_IF_ERROR(ValidateDelta(*this, delta));
  const size_t n_old = num_vertices();
  const size_t num_links = num_link_types();

  // Bucket delta edges per link type, sort by (src, dst), and reject
  // duplicates that non-growable link types cannot absorb.
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

  auto batch = std::make_unique<internal::PreparedBatch>();
  batch->graph = this;
  batch->num_vertices = n_old;
  batch->commits = commits_;
  batch->empty = delta.empty();
  if (batch->empty) return PreparedDelta(std::move(batch));

  // Columns. The base is never written: the first delta copies them to a
  // new overlay (O(V), once), with room for the new vertices; the commit
  // appends those and applies the bumps.
  batch->type_counts = type_counts_;
  batch->attrs.resize(attrs_.size());
  for (size_t t = 0; t < attrs_.size(); ++t) {
    batch->attrs[t].resize(attrs_[t].size());
  }
  for (const GraphDelta::NewVertex& nv : delta.new_vertices) {
    batch->vtype.tail.push_back(nv.type);
    batch->dense_idx.tail.push_back(
        static_cast<uint32_t>(batch->type_counts[nv.type]++));
    for (size_t a = 0; a < nv.attrs.size(); ++a) {
      batch->attrs[nv.type][a].tail.push_back(nv.attrs[a]);
    }
  }
  for (const GraphDelta::AttrBump& b : delta.attr_bumps) {
    batch->bumps.push_back({vtype_[b.v], b.attr, dense_idx_[b.v], b.delta});
  }
  if (overlay_ == nullptr) {
    auto overlay = std::make_unique<internal::GraphOverlay>();
    overlay->vtype = CopyWithRoom(vtype_, batch->vtype.tail.size());
    overlay->dense_idx =
        CopyWithRoom(dense_idx_, batch->dense_idx.tail.size());
    overlay->attrs.resize(attrs_.size());
    for (size_t t = 0; t < attrs_.size(); ++t) {
      for (size_t a = 0; a < attrs_[t].size(); ++a) {
        overlay->attrs[t].push_back(
            CopyWithRoom(attrs_[t][a], batch->attrs[t][a].tail.size()));
      }
    }
    overlay->out.resize(num_links);
    overlay->in.resize(num_links);
    batch->overlay = std::move(overlay);
  } else {
    PlanAppend(overlay_->vtype, &batch->vtype);
    PlanAppend(overlay_->dense_idx, &batch->dense_idx);
    for (size_t t = 0; t < attrs_.size(); ++t) {
      for (size_t a = 0; a < attrs_[t].size(); ++a) {
        PlanAppend(overlay_->attrs[t][a], &batch->attrs[t][a]);
      }
    }
  }

  // Runs: out-runs from the (src, dst) order, in-runs from (dst, src).
  // Runs stay neighbor-sorted and strengths fold by summing, so every run
  // is exactly the one GraphBuilder::Build() would emit over the union
  // multiset.
  const size_t n_new = n_old + delta.new_vertices.size();
  batch->out.resize(num_links);
  batch->in.resize(num_links);
  for (size_t l = 0; l < num_links; ++l) {
    const auto lt = static_cast<LinkTypeId>(l);
    auto& edges = adds[lt];
    GroupAdds(edges, /*incoming=*/false, &batch->out[lt]);
    PrepareAdjacency(/*incoming=*/false, lt, n_new, &batch->out[lt]);
    batch->edges_gained += batch->out[lt].gained;
    std::sort(edges.begin(), edges.end(),
              [](const EdgeAdd& a, const EdgeAdd& b) {
                return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
              });
    GroupAdds(edges, /*incoming=*/true, &batch->in[lt]);
    PrepareAdjacency(/*incoming=*/true, lt, n_new, &batch->in[lt]);
  }
  return PreparedDelta(std::move(batch));
}

void Graph::PrepareAdjacency(bool incoming, LinkTypeId lt, size_t num_new,
                             internal::AdjacencyBatch* batch) const {
  const size_t n_old = num_vertices();
  const CsrView& view = (incoming ? in_ : out_)[lt];
  const internal::GraphOverlay::Adjacency& adj =
      overlay_ == nullptr ? kUntouched
                          : (incoming ? overlay_->in : overlay_->out)[lt];
  // v's run now; no CSR covers a new vertex, whose run starts empty.
  const auto current = [&](VertexId v) {
    return v < n_old ? Run(view, v) : std::span<const Edge>();
  };

  size_t new_rows = 0;
  for (internal::AdjacencyBatch::RunEdit& edit : batch->edits) {
    const VertexId v = edit.v;
    const uint32_t row = v < adj.patch_row.size() ? adj.patch_row[v]
                                                  : internal::kNoPatch;
    if (row != internal::kNoPatch && row != internal::kEmptyRun) {
      edit.row = row;
    } else {
      ++new_rows;
    }
    edit.inserts = PlaceAdds(
        current(v), std::span(batch->adds).subspan(edit.first,
                                                   edit.last - edit.first));
    batch->gained += edit.inserts;
  }
  const auto adds_of = [&](const internal::AdjacencyBatch::RunEdit& edit) {
    return std::span<const internal::PlacedAdd>(batch->adds)
        .subspan(edit.first, edit.last - edit.first);
  };

  // More than V/4 runs of its own: fold the CSR and every merged run into
  // a fresh heap CSR. The runs are merged here, so the fold is one copy in
  // vertex order.
  if (OwnRuns(adj) + new_rows > num_new / 4) {
    batch->compact = true;
    batch->offsets.assign(num_new + 1, 0);
    auto edit = batch->edits.begin();
    for (VertexId v = 0; v < num_new; ++v) {
      size_t size = current(v).size();
      if (edit != batch->edits.end() && edit->v == v) size += (edit++)->inserts;
      batch->offsets[v + 1] = batch->offsets[v] + size;
    }
    batch->edges.reserve(batch->offsets[num_new]);
    edit = batch->edits.begin();
    for (VertexId v = 0; v < num_new; ++v) {
      if (edit != batch->edits.end() && edit->v == v) {
        AppendMerged(current(v), adds_of(*edit++), &batch->edges);
      } else {
        const std::span<const Edge> run = current(v);
        batch->edges.insert(batch->edges.end(), run.begin(), run.end());
      }
    }
    batch->edits.clear();
    return;
  }

  // Merged runs for vertices without room to merge in place.
  for (internal::AdjacencyBatch::RunEdit& edit : batch->edits) {
    const std::span<const Edge> run = current(edit.v);
    const size_t size = run.size() + edit.inserts;
    if (edit.row == internal::kNoPatch) {
      edit.run.reserve(size);
    } else if (size > adj.runs[edit.row].capacity()) {
      edit.run.reserve(Room(run.size(), size));
    } else {
      continue;
    }
    AppendMerged(run, adds_of(edit), &edit.run);
  }

  // Room in the patch table for every vertex (rows are kNoPatch before
  // the first patch) and in the run table for the new rows plus, at
  // first, the shared empty run. A run table that regrows gets twice the
  // rows it needs: the commit moves every row header into it, so a table
  // one large batch filled must not regrow on the next.
  batch->needs_rows = num_new > n_old || !batch->edits.empty();
  if (!batch->needs_rows) return;
  if (adj.patch_row.size() != n_old || adj.patch_row.capacity() < num_new) {
    batch->patch_row.reserve(Room(adj.patch_row.size(), num_new));
    batch->patch_row.assign(adj.patch_row.begin(), adj.patch_row.end());
    batch->patch_row.resize(n_old, internal::kNoPatch);
  }
  const size_t rows = adj.runs.size() + (adj.runs.empty() ? 1 : 0) + new_rows;
  if (rows > adj.runs.capacity()) batch->runs.reserve(2 * rows);
}

util::Status Graph::CommitDelta(PreparedDelta* prepared) {
  internal::PreparedBatch* batch = prepared->batch_.get();
  if (batch == nullptr || batch->graph != this ||
      batch->num_vertices != num_vertices() || batch->commits != commits_) {
    return util::Status::FailedPrecondition(
        "delta was prepared against another state of the graph");
  }
  ++commits_;
  if (batch->empty) return util::Status::OK();

  if (batch->overlay != nullptr) overlay_ = std::move(batch->overlay);
  internal::GraphOverlay& overlay = *overlay_;
  CommitAppend(&overlay.vtype, &batch->vtype);
  CommitAppend(&overlay.dense_idx, &batch->dense_idx);
  for (size_t t = 0; t < attrs_.size(); ++t) {
    for (size_t a = 0; a < attrs_[t].size(); ++a) {
      CommitAppend(&overlay.attrs[t][a], &batch->attrs[t][a]);
    }
  }
  for (const internal::PreparedBatch::Bump& b : batch->bumps) {
    overlay.attrs[b.type][b.attr][b.dense] += b.delta;
  }
  type_counts_.swap(batch->type_counts);
  vtype_ = overlay.vtype;
  dense_idx_ = overlay.dense_idx;
  for (size_t t = 0; t < attrs_.size(); ++t) {
    for (size_t a = 0; a < attrs_[t].size(); ++a) {
      attrs_[t][a] = overlay.attrs[t][a];
    }
  }

  for (size_t l = 0; l < batch->out.size(); ++l) {
    const auto lt = static_cast<LinkTypeId>(l);
    CommitAdjacency(/*incoming=*/false, lt, &batch->out[lt]);
    CommitAdjacency(/*incoming=*/true, lt, &batch->in[lt]);
  }
  num_edges_ += batch->edges_gained;
  return util::Status::OK();
}

void Graph::CommitAdjacency(bool incoming, LinkTypeId lt,
                            internal::AdjacencyBatch* batch) {
  internal::GraphOverlay::Adjacency& adj =
      (incoming ? overlay_->in : overlay_->out)[lt];
  CsrView& view = (incoming ? in_ : out_)[lt];
  if (batch->compact) {
    // The batch's tables are empty, so the swaps empty the adjacency's.
    adj.offsets.swap(batch->offsets);
    adj.edges.swap(batch->edges);
    adj.patch_row.swap(batch->patch_row);
    adj.runs.swap(batch->runs);
    adj.run_edges = 0;
    view = CsrView{adj.offsets, adj.edges, {}, nullptr};
    ++overlay_->compactions;
    return;
  }
  if (!batch->needs_rows) return;
  if (batch->patch_row.capacity() != 0) adj.patch_row.swap(batch->patch_row);
  // A new vertex shares the empty run until an edit gives it a row.
  adj.patch_row.resize(num_vertices(), internal::kEmptyRun);
  if (batch->runs.capacity() != 0) {
    for (std::vector<Edge>& run : adj.runs) {
      batch->runs.push_back(std::move(run));
    }
    adj.runs.swap(batch->runs);
  }
  if (adj.runs.empty()) adj.runs.emplace_back();  // the kEmptyRun row
  for (internal::AdjacencyBatch::RunEdit& edit : batch->edits) {
    if (edit.row == internal::kNoPatch) {
      adj.patch_row[edit.v] = static_cast<uint32_t>(adj.runs.size());
      adj.run_edges += edit.run.size();
      adj.runs.push_back(std::move(edit.run));
    } else if (edit.run.capacity() != 0) {
      std::vector<Edge>& run = adj.runs[edit.row];
      adj.run_edges += edit.run.size() - run.size();
      run.swap(edit.run);
    } else {
      MergeInPlace(std::span(batch->adds).subspan(edit.first,
                                                  edit.last - edit.first),
                   edit.inserts, &adj.runs[edit.row]);
      adj.run_edges += edit.inserts;
    }
  }
  view.patch_row = adj.patch_row;
  view.runs = adj.runs.data();
}

}  // namespace hinpriv::hin
