#ifndef HINPRIV_CORE_VALUE_COUNTS_H_
#define HINPRIV_CORE_VALUE_COUNTS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hinpriv::core {

// How often each distinct value occurs in a list of 64-bit values: k(t_i)
// of Definition 7 per value, and the observed cardinality C(T) of Theorem 1
// as the number of distinct values.
//
// A flat open-addressing hash -> count table with linear probing, sized
// once to at least twice the input length, so it never rehashes and a
// probe stays short. Counting is one pass over the input with no
// per-value allocation, where a node-based std::unordered_set/map
// allocates a heap node per distinct value.
class ValueCounts {
 public:
  explicit ValueCounts(std::span<const uint64_t> values);

  // C(T): the number of distinct values.
  size_t num_distinct() const { return num_distinct_; }

  // k: the occurrences of `value`; 0 when it does not occur.
  size_t count(uint64_t value) const { return slots_[Find(value)].count; }

 private:
  // A slot whose count is 0 is empty, so every uint64_t value, 0 and
  // UINT64_MAX included, can be stored.
  struct Slot {
    uint64_t value = 0;
    uint64_t count = 0;
  };

  // The slot holding `value`, or the empty slot where it would go.
  size_t Find(uint64_t value) const;

  std::vector<Slot> slots_;  // power-of-two size
  size_t mask_ = 0;
  size_t num_distinct_ = 0;
};

}  // namespace hinpriv::core

#endif  // HINPRIV_CORE_VALUE_COUNTS_H_
