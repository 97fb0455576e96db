#include "columnstore/row_group.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_set>

namespace hd {

namespace {

/// Approximate distinct count of a column (exact up to a cap).
uint64_t DistinctCount(const std::vector<int64_t>& v, size_t cap) {
  std::unordered_set<int64_t> s;
  s.reserve(std::min(v.size(), cap));
  for (int64_t x : v) {
    s.insert(x);
    if (s.size() >= cap) return cap;
  }
  return s.size();
}

}  // namespace

void RowGroup::Build(std::vector<std::vector<int64_t>> cols,
                     std::vector<int64_t> locators, const CsiOptions& opts,
                     BufferPool* pool) {
  const int ncols = static_cast<int>(cols.size());
  n_ = locators.size();
  for (auto& c : cols) {
    assert(c.size() == n_);
    (void)c;
  }

  if (opts.compression_sort && ncols > 0 && n_ > 1) {
    // Greedy VertiPaq-style ordering: sort columns by ascending distinct
    // count (fewest-runs-first heuristic from Section 4.4), then sort the
    // row permutation lexicographically in that column order.
    std::vector<int> order(ncols);
    std::iota(order.begin(), order.end(), 0);
    std::vector<uint64_t> ndv(ncols);
    for (int c = 0; c < ncols; ++c) ndv[c] = DistinctCount(cols[c], 1u << 16);
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return ndv[a] < ndv[b]; });
    std::vector<uint32_t> perm(n_);
    std::iota(perm.begin(), perm.end(), 0u);
    std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      for (int c : order) {
        if (cols[c][a] != cols[c][b]) return cols[c][a] < cols[c][b];
      }
      return a < b;
    });
    // Apply the permutation to every column and the locators.
    std::vector<int64_t> tmp(n_);
    for (int c = 0; c < ncols; ++c) {
      for (size_t i = 0; i < n_; ++i) tmp[i] = cols[c][perm[i]];
      cols[c].swap(tmp);
    }
    for (size_t i = 0; i < n_; ++i) tmp[i] = locators[perm[i]];
    locators.swap(tmp);
  }

  segments_.resize(ncols);
  for (int c = 0; c < ncols; ++c) {
    segments_[c].Build(cols[c], pool);
  }
  locator_seg_.Build(locators, pool);
}

uint64_t RowGroup::size_bytes() const {
  uint64_t b = locator_seg_.size_bytes() + (n_ + 63) / 64 * 8;
  for (const auto& s : segments_) b += s.size_bytes();
  return b;
}

}  // namespace hd
