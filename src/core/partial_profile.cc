#include "core/partial_profile.h"

#include <algorithm>

namespace valmod::core {

namespace {

/// Max-heap order on base LB: the root is the worst stored candidate, the
/// one evicted first.
bool HeapLess(const Entry& a, const Entry& b) { return a.base_lb < b.base_lb; }

}  // namespace

PartialProfileSet::PartialProfileSet(std::size_t rows, std::size_t p)
    : p_(p),
      entries_(rows * p),
      row_size_(rows, 0),
      max_base_lb_(rows, std::numeric_limits<double>::infinity()) {}

void PartialProfileSet::Store(std::size_t row, int64_t match, double dot,
                              double base_lb) {
  Entry* base = &entries_[row * p_];
  std::size_t& size = row_size_[row];
  if (size < p_) {
    base[size] = Entry{match, dot, base_lb, 0.0};
    ++size;
    std::push_heap(base, base + size, HeapLess);
    return;
  }
  std::pop_heap(base, base + size, HeapLess);
  base[size - 1] = Entry{match, dot, base_lb, 0.0};
  std::push_heap(base, base + size, HeapLess);
}

void PartialProfileSet::FinishSeeding(std::size_t row) {
  Entry* base = &entries_[row * p_];
  const std::size_t size = row_size_[row];
  std::sort(base, base + size, HeapLess);
  max_base_lb_[row] = size == p_
                          ? base[size - 1].base_lb
                          : std::numeric_limits<double>::infinity();
}

void PartialProfileSet::Reset(std::size_t row) {
  row_size_[row] = 0;
  max_base_lb_[row] = std::numeric_limits<double>::infinity();
}

}  // namespace valmod::core
