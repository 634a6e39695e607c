#include "core/candidate_index.h"

#include <limits>
#include <utility>

#include "hin/graph_delta.h"
#include "util/hashing.h"

namespace hinpriv::core {

namespace {

constexpr uint32_t kEmptySlot = std::numeric_limits<uint32_t>::max();

uint64_t TupleHash(const hin::AttrValue* tuple, size_t size) {
  uint64_t h = 0x853c49e6748fea9bULL;
  for (size_t k = 0; k < size; ++k) {
    h = util::HashCombine(
        h, static_cast<uint64_t>(static_cast<int64_t>(tuple[k])));
  }
  return util::Mix64(h);
}

}  // namespace

CandidateIndex::CandidateIndex(const hin::Graph& aux,
                               const MatchOptions& options)
    : aux_(aux),
      exact_(options.exact_attributes),
      growable_(options.growable_attributes),
      growth_aware_(options.growth_aware),
      stride_(1 + options.growable_attributes.size()),
      scan_length_(obs::MetricsRegistry::Global().GetHistogram(
          "dehin/candidate_index/scan_length")) {
  rows_ = CompileRows(aux);
  // Counting pass (buckets without spare capacity), then fill in id order
  // and sort each bucket by value.
  const size_t n = aux.num_vertices();
  std::vector<uint32_t> sizes(num_classes(), 0);
  for (hin::VertexId v = 0; v < n; ++v) ++sizes[rows_.cls(v)];
  buckets_.resize(num_classes());
  for (size_t c = 0; c < buckets_.size(); ++c) buckets_[c].reserve(sizes[c]);
  for (hin::VertexId v = 0; v < n; ++v) {
    buckets_[rows_.cls(v)].push_back({rows_.primary(v), v});
  }
  if (stride_ > 1) {
    for (std::vector<Entry>& bucket : buckets_) {
      std::sort(bucket.begin(), bucket.end(), Before);
    }
  }
  PublishBucketGauge();
}

void CandidateIndex::CompileRow(const hin::Graph& graph, hin::VertexId v,
                                std::vector<hin::AttrValue>* tuple,
                                hin::AttrValue* row) {
  for (size_t k = 0; k < exact_.size(); ++k) {
    (*tuple)[k] = graph.attribute(v, exact_[k]);
  }
  // A bijective cast: equal rows hold equal class ids.
  row[0] = static_cast<hin::AttrValue>(ClassOf(tuple->data()));
  for (size_t k = 0; k < growable_.size(); ++k) {
    row[1 + k] = graph.attribute(v, growable_[k]);
  }
}

uint32_t CandidateIndex::ClassOf(const hin::AttrValue* tuple) {
  const size_t width = exact_.size();
  const uint64_t hash = TupleHash(tuple, width);
  if (2 * (class_hash_.size() + 1) > slots_.size()) GrowSlots();
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint32_t c = slots_[i];
    if (c == kEmptySlot) {
      const uint32_t created = static_cast<uint32_t>(class_hash_.size());
      slots_[i] = created;
      class_hash_.push_back(hash);
      tuples_.insert(tuples_.end(), tuple, tuple + width);
      return created;
    }
    if (class_hash_[c] == hash &&
        std::equal(tuple, tuple + width, tuples_.data() + c * width)) {
      return c;
    }
  }
}

void CandidateIndex::GrowSlots() {
  slots_.assign(std::max<size_t>(64, 2 * slots_.size()), kEmptySlot);
  const size_t mask = slots_.size() - 1;
  for (uint32_t c = 0; c < class_hash_.size(); ++c) {
    size_t i = class_hash_[c] & mask;
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = c;
  }
}

ProfileRows CandidateIndex::CompileRows(const hin::Graph& graph) {
  ProfileRows rows;
  rows.stride_ = stride_;
  rows.data_.resize(graph.num_vertices() * stride_);
  std::vector<hin::AttrValue> tuple(exact_.size());
  for (hin::VertexId v = 0; v < graph.num_vertices(); ++v) {
    CompileRow(graph, v, &tuple, rows.row(v));
  }
  return rows;
}

void CandidateIndex::ApplyDelta(const hin::GraphDelta& delta) {
  const size_t n = aux_.num_vertices();
  rows_.data_.resize(n * stride_);
  std::vector<hin::AttrValue> tuple(exact_.size());
  std::vector<std::pair<uint32_t, Entry>> insertions;
  insertions.reserve(delta.attr_bumps.size() + delta.new_vertices.size());

  // Bumped vertices: recompile the row from the graph's post-delta values.
  // Only a changed class or primary value moves the bucket entry; the old
  // entry is found by the values the row held before.
  std::vector<hin::VertexId> bumped;
  bumped.reserve(delta.attr_bumps.size());
  for (const hin::GraphDelta::AttrBump& b : delta.attr_bumps) {
    bumped.push_back(b.v);
  }
  std::sort(bumped.begin(), bumped.end());
  bumped.erase(std::unique(bumped.begin(), bumped.end()), bumped.end());
  for (hin::VertexId v : bumped) {
    const uint32_t old_class = rows_.cls(v);
    const Entry old_entry{rows_.primary(v), v};
    CompileRow(aux_, v, &tuple, rows_.row(v));
    const Entry entry{rows_.primary(v), v};
    if (rows_.cls(v) == old_class && entry == old_entry) continue;
    std::vector<Entry>& bucket = buckets_[old_class];
    bucket.erase(
        std::lower_bound(bucket.begin(), bucket.end(), old_entry, Before));
    insertions.emplace_back(rows_.cls(v), entry);
  }

  // New vertices (ids follow the base contiguously).
  for (size_t i = delta.base_num_vertices; i < n; ++i) {
    const hin::VertexId v = static_cast<hin::VertexId>(i);
    CompileRow(aux_, v, &tuple, rows_.row(v));
    insertions.emplace_back(rows_.cls(v), Entry{rows_.primary(v), v});
  }

  // A class created since the last call (by this delta or by
  // CompileRows) gets its bucket now.
  if (buckets_.size() < num_classes()) buckets_.resize(num_classes());
  for (const auto& [cls, entry] : insertions) {
    std::vector<Entry>& bucket = buckets_[cls];
    bucket.insert(
        std::lower_bound(bucket.begin(), bucket.end(), entry, Before), entry);
  }
  PublishBucketGauge();
}

bool CandidateIndex::OrderIdenticalTo(const CandidateIndex& other) const {
  if (stride_ != other.stride_ || exact_ != other.exact_ ||
      rows_.size() != other.rows_.size()) {
    return false;
  }
  const size_t width = exact_.size();
  for (hin::VertexId v = 0; v < rows_.size(); ++v) {
    const hin::AttrValue* a_tuple = tuples_.data() + rows_.cls(v) * width;
    const hin::AttrValue* b_tuple =
        other.tuples_.data() + other.rows_.cls(v) * width;
    const hin::AttrValue* a = rows_.row(v);
    if (!std::equal(a_tuple, a_tuple + width, b_tuple) ||
        !std::equal(a + 1, a + stride_, other.rows_.row(v) + 1)) {
      return false;
    }
  }
  // Equal tuples map one class onto one class, so each bucket with members
  // is compared with the other index's bucket for its first member.
  size_t occupied = 0;
  for (size_t c = 0; c < buckets_.size(); ++c) {
    const std::vector<Entry>& bucket = buckets_[c];
    if (bucket.empty()) continue;
    ++occupied;
    const hin::VertexId first = bucket.front().id;
    if (rows_.cls(first) != c) return false;
    const uint32_t other_class = other.rows_.cls(first);
    if (other_class >= other.buckets_.size() ||
        bucket != other.buckets_[other_class]) {
      return false;
    }
  }
  return occupied == other.num_buckets();
}

size_t CandidateIndex::num_buckets() const {
  return static_cast<size_t>(
      std::count_if(buckets_.begin(), buckets_.end(),
                    [](const std::vector<Entry>& b) { return !b.empty(); }));
}

void CandidateIndex::PublishBucketGauge() const {
  obs::MetricsRegistry::Global()
      .GetGauge("dehin/candidate_index/buckets")
      ->Set(static_cast<double>(num_buckets()));
}

}  // namespace hinpriv::core
