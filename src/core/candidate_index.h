#ifndef HINPRIV_CORE_CANDIDATE_INDEX_H_
#define HINPRIV_CORE_CANDIDATE_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/matchers.h"
#include "hin/graph.h"
#include "obs/metrics.h"

namespace hinpriv::hin {
struct GraphDelta;
}  // namespace hinpriv::hin

namespace hinpriv::core {

// One graph's vertices compiled against the profile predicate of a
// MatchOptions (entity_attribute_match): row v is the class id of v's
// exact-attribute tuple followed by v's growable values, so deciding a
// match reads two short rows instead of the attribute columns. Class ids
// come from a CandidateIndex's dictionary, and only rows compiled by the
// same index are comparable.
class ProfileRows {
 public:
  size_t size() const { return data_.size() / stride_; }

 private:
  friend class CandidateIndex;

  const hin::AttrValue* row(hin::VertexId v) const {
    return data_.data() + size_t{v} * stride_;
  }
  hin::AttrValue* row(hin::VertexId v) {
    return data_.data() + size_t{v} * stride_;
  }
  // Row v's class id (stored by a bijective cast), and its primary
  // growable value, or 0 without a growable attribute.
  uint32_t cls(hin::VertexId v) const {
    return static_cast<uint32_t>(row(v)[0]);
  }
  hin::AttrValue primary(hin::VertexId v) const {
    return stride_ > 1 ? row(v)[1] : 0;
  }

  size_t stride_ = 1;
  std::vector<hin::AttrValue> data_;
};

// The compiled profile predicate of Algorithm 1 and the inverted index
// that accelerates its "foreach v in V" scan. An exact dictionary gives
// every distinct tuple of exact-match attribute values (gender, yob, tag
// count) a dense class id, so equal classes mean equal tuples; every
// auxiliary vertex gets a ProfileRows row; and each class's bucket holds
// {primary growable value (tweet count), vertex id} sorted by value
// descending, then id ascending. A query walks one contiguous bucket and
// stops at the first entry below the target's value.
//
// The index is a pure optimization: candidate sets are bit-identical to
// the literal scan with EntityAttributesMatch (asserted by the reference
// differential tests and measured by the --no-index ablation).
class CandidateIndex {
 public:
  // `options` supplies the attribute partition; link-related fields are
  // ignored. The index holds a reference to `aux`; the graph must outlive
  // the index.
  CandidateIndex(const hin::Graph& aux, const MatchOptions& options);

  CandidateIndex(const CandidateIndex&) = delete;
  CandidateIndex& operator=(const CandidateIndex&) = delete;

  // Compiles every vertex of `graph` (a target graph) into rows over this
  // index's dictionary. A tuple no auxiliary vertex has gets a class of
  // its own with an empty bucket, so a later ApplyDelta that gives an
  // auxiliary vertex that tuple fills the class these rows already hold.
  // Writes the dictionary: calls must be serialized with each other and
  // with ApplyDelta. Concurrent ForEachCandidate and Matches calls are
  // safe, because they never read the dictionary.
  ProfileRows CompileRows(const hin::Graph& graph);

  // entity_attribute_match(vt, va) for target row vt of `target` and
  // auxiliary vertex va: the same predicate as EntityAttributesMatch.
  bool Matches(const ProfileRows& target, hin::VertexId vt,
               hin::VertexId va) const {
    const hin::AttrValue* t = target.row(vt);
    const hin::AttrValue* a = rows_.row(va);
    if (t[0] != a[0]) return false;
    for (size_t k = 1; k < stride_; ++k) {
      if (growth_aware_ ? a[k] < t[k] : a[k] != t[k]) return false;
    }
    return true;
  }

  // Invokes fn(aux_vertex) for every auxiliary vertex that Matches target
  // row vt, in bucket order.
  template <typename Fn>
  void ForEachCandidate(const ProfileRows& target, hin::VertexId vt,
                        Fn&& fn) const {
    const uint32_t cls = target.cls(vt);
    if (cls >= buckets_.size()) {
      scan_length_->Record(0);
      return;
    }
    const std::vector<Entry>& bucket = buckets_[cls];
    // Without a growable attribute every value is 0 and the whole bucket
    // matches.
    const hin::AttrValue floor = target.primary(vt);
    auto it = bucket.begin();
    if (!growth_aware_) {
      // Exact semantics match only the run of entries equal to the floor.
      it = std::partition_point(
          bucket.begin(), bucket.end(),
          [&](const Entry& e) { return e.value > floor; });
    }
    uint64_t scanned = 0;
    for (; it != bucket.end() && it->value >= floor; ++it) {
      ++scanned;
      // The class and the primary value already match; a second growable
      // attribute still has to be compared.
      if (stride_ > 2 && !Matches(target, vt, it->id)) continue;
      fn(it->id);
    }
    scan_length_->Record(scanned);
  }

  // Incrementally maintains the dictionary, the rows and the buckets after
  // hin::GraphBuilder::ApplyDelta has mutated the indexed graph (call order
  // matters: the graph must already hold the post-delta values). New
  // vertices get rows and join their buckets at the sorted position; a
  // bumped vertex moves only when its class or primary value changed. The
  // cost is O(|delta|) row work plus a binary search and a shift per moved
  // entry, and the result equals a rebuild (OrderIdenticalTo).
  void ApplyDelta(const hin::GraphDelta& delta);

  // Structural equality with another index over the same graph: every
  // vertex's class holds the same tuple and its growable values are equal,
  // and the classes with members have identical buckets, inline values
  // included. Class ids themselves may differ, because an index that
  // absorbed deltas or compiled targets numbers its classes in a different
  // order from a rebuild. The bucket order (value descending, id
  // ascending) is a strict total order, so identity here implies identical
  // candidate enumeration.
  bool OrderIdenticalTo(const CandidateIndex& other) const;

  // Classes with at least one auxiliary vertex.
  size_t num_buckets() const;
  // Classes in the dictionary, target-only tuples included.
  size_t num_classes() const { return class_hash_.size(); }

 private:
  struct Entry {
    hin::AttrValue value;  // the vertex's primary growable value, or 0
    hin::VertexId id;
    friend bool operator==(const Entry&, const Entry&) = default;
  };
  static bool Before(const Entry& a, const Entry& b) {
    return a.value != b.value ? a.value > b.value : a.id < b.id;
  }

  // Writes vertex v of `graph` into `row`, giving its exact tuple (staged
  // in `tuple`) a class if it has none yet.
  void CompileRow(const hin::Graph& graph, hin::VertexId v,
                  std::vector<hin::AttrValue>* tuple, hin::AttrValue* row);
  // The class of an exact tuple, created if new.
  uint32_t ClassOf(const hin::AttrValue* tuple);
  void GrowSlots();
  void PublishBucketGauge() const;

  const hin::Graph& aux_;
  std::vector<hin::AttributeId> exact_;
  std::vector<hin::AttributeId> growable_;
  bool growth_aware_ = true;
  size_t stride_ = 1;  // 1 + growable_.size()

  // The exact dictionary: class c's tuple is tuples_[c * exact_.size(), +
  // exact_.size()) and its hash class_hash_[c]; slots_ is an open-
  // addressing table of class ids (kEmptySlot when free), at most half
  // full.
  std::vector<hin::AttrValue> tuples_;
  std::vector<uint64_t> class_hash_;
  std::vector<uint32_t> slots_;

  ProfileRows rows_;  // one row per auxiliary vertex
  // Indexed by class. Classes created by CompileRows after the last
  // ApplyDelta have no bucket yet and match nothing.
  std::vector<std::vector<Entry>> buckets_;
  // How far each query walks its bucket before the early break — the
  // measurable half of the "pure optimization" claim above (the other half
  // is the index-hit vs full-scan counters in dehin.cc). Resolved once;
  // Record() is lock-free.
  obs::Histogram* scan_length_;
};

}  // namespace hinpriv::core

#endif  // HINPRIV_CORE_CANDIDATE_INDEX_H_
