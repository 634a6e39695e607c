#include "core/value_counts.h"

#include <algorithm>
#include <bit>

#include "util/hashing.h"

namespace hinpriv::core {

ValueCounts::ValueCounts(std::span<const uint64_t> values) {
  // Load factor at most 1/2, whatever the number of distinct values.
  const size_t capacity =
      std::bit_ceil(std::max<size_t>(16, 2 * values.size()));
  slots_.resize(capacity);
  mask_ = capacity - 1;
  for (uint64_t value : values) {
    Slot& slot = slots_[Find(value)];
    if (slot.count == 0) {
      slot.value = value;
      ++num_distinct_;
    }
    ++slot.count;
  }
}

size_t ValueCounts::Find(uint64_t value) const {
  // Mixing spreads inputs that differ only in high bits (or, for small
  // integers, only in low ones) across the table.
  size_t i = util::Mix64(value) & mask_;
  while (slots_[i].count != 0 && slots_[i].value != value) {
    i = (i + 1) & mask_;
  }
  return i;
}

}  // namespace hinpriv::core
