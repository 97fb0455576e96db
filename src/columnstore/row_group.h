// Row group: a horizontal slice of a columnstore index (100K–1M rows in
// SQL Server), compressed column by column. Its delete bitmap lives beside
// it (DeleteBitmap), so a built row group is immutable and read views can
// share it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "columnstore/segment.h"

namespace hd {

/// Options controlling columnstore build behaviour.
struct CsiOptions {
  /// Rows per row group. SQL Server uses 100K–1M; scaled default for our
  /// data sizes.
  size_t rowgroup_size = 1u << 17;
  /// Apply the compression sort inside each row group: greedily order
  /// columns by ascending distinct count and sort rows lexicographically
  /// (Section 2 / Figure 8). Improves RLE without changing segment
  /// min/max, so data skipping behaviour is unaffected.
  bool compression_sort = true;
  /// Secondary CSI: when the delete buffer exceeds this many rows, the
  /// (modelled) background process compacts it into the delete bitmaps
  /// (Section 2), bounding the scans' anti-semi-join cost.
  size_t delete_buffer_compact_threshold = 4096;
  /// Sorted columnstore (the Section 4.5 / Vertica-projection extension):
  /// bulk loads globally sort rows on this stored column before forming
  /// row groups, giving segments disjoint [min,max] ranges and hence
  /// aggressive data skipping for predicates on it. Trickle inserts land
  /// in the (unsorted) delta store — keeping strict order under updates
  /// would be expensive, exactly as the paper notes. -1 = unsorted.
  int sort_col = -1;
};

/// One compressed row group. Immutable once built.
class RowGroup {
 public:
  /// Build from column-major values (`cols[c]` has the same length for all
  /// c) plus per-row locators. May permute rows for compression.
  void Build(std::vector<std::vector<int64_t>> cols,
             std::vector<int64_t> locators, const CsiOptions& opts,
             BufferPool* pool);

  size_t num_rows() const { return n_; }
  int num_columns() const { return static_cast<int>(segments_.size()); }
  const ColumnSegment& segment(int c) const { return segments_[c]; }
  const ColumnSegment& locator_segment() const { return locator_seg_; }

  /// Total compressed bytes across segments (+ locator segment), plus the
  /// group's delete bitmap (one bit per row, allocated or not).
  uint64_t size_bytes() const;

 private:
  size_t n_ = 0;
  std::vector<ColumnSegment> segments_;
  ColumnSegment locator_seg_;
};

/// Delete bitmap of one row group (the primary CSI's delete path, and the
/// target the secondary delete buffer compacts into). A bitmap published
/// in a ColumnStoreIndex is never modified: a delete copies it, sets bits
/// in the copy and publishes the copy, so a read view keeps the image it
/// pinned.
class DeleteBitmap {
 public:
  explicit DeleteBitmap(size_t rows) : bits_((rows + 63) / 64, 0) {}

  bool IsDeleted(size_t pos) const {
    return (bits_[pos >> 6] >> (pos & 63)) & 1;
  }
  void SetDeleted(size_t pos) {
    uint64_t& w = bits_[pos >> 6];
    const uint64_t bit = 1ull << (pos & 63);
    if (!(w & bit)) {
      w |= bit;
      ++count_;
    }
  }
  uint64_t count() const { return count_; }

 private:
  std::vector<uint64_t> bits_;
  uint64_t count_ = 0;
};

}  // namespace hd
