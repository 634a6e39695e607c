#ifndef HINPRIV_CORE_SIGNATURE_H_
#define HINPRIV_CORE_SIGNATURE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "hin/graph.h"
#include "hin/types.h"

namespace hinpriv::core {

// Configuration of the attribute-metapath-combined value (Section 4.1):
// which profile attributes form the distance-0 value and which target
// network schema link types propagate it to neighbors.
struct SignatureOptions {
  // Profile attributes included at distance 0. Table 1 uses only the tag
  // count ("only the number of tags is used in computing the entity
  // cardinality") to keep the entity cardinality small relative to the
  // 1000-entity sample.
  std::vector<hin::AttributeId> attributes;
  // Link types whose (strength, neighbor-value) pairs are folded in.
  std::vector<hin::LinkTypeId> link_types;
  // Also fold in in-neighborhoods (reverse meta paths). Default false:
  // the paper's target meta paths point out of the target user, and
  // Theorem 2's growth analysis is in terms of the out-degree.
  bool use_in_edges = false;
};

// Computes, for every vertex and every max distance n in [0, max_distance],
// a 64-bit canonical hash of the vertex's attribute-metapath-combined value:
//
//   sig_0(v)  = H(selected profile attributes of v)
//   sig_n(v)  = H(sig_0(v), sorted multiset over enabled link types of
//                 (link type, direction, strength, sig_{n-1}(neighbor)))
//
// Two vertices receive equal hashes iff their distance-n neighborhood
// feature expansions (Section 4.1's "Max. Distance-n" feature vectors) are
// equal, up to negligible 64-bit collision probability. Computed level by
// level over the whole graph in O(max_distance * E log deg) work. Each
// level is an exec::Executor::ParallelFor over the vertices, on the
// caller's own pool when the caller is an executor worker and on
// exec::Executor::Global() otherwise; every signature is the same under any
// schedule and pool size.
//
// Returns signatures[n][v].
std::vector<std::vector<uint64_t>> ComputeSignatures(
    const hin::Graph& graph, const SignatureOptions& options,
    int max_distance);

// Number of distinct values in `values` — the observed cardinality C(T) of
// Theorem 1 when applied to a signature level. Counted in a flat table
// (core/value_counts.h).
size_t CountDistinct(std::span<const uint64_t> values);

}  // namespace hinpriv::core

#endif  // HINPRIV_CORE_SIGNATURE_H_
