// Heap file: unordered row storage over packed rows, the default primary
// structure when a table has neither a primary B+ tree nor a primary
// columnstore.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/packed.h"
#include "common/relaxed.h"
#include "common/status.h"
#include "storage/buffer_pool.h"

namespace hd {

/// Append-only paged heap of fixed-stride packed rows with in-place update
/// and logical delete. RowIds are stable insert positions.
class HeapFile {
 public:
  /// `stride` = number of int64 slots per row.
  HeapFile(int stride, BufferPool* pool);
  ~HeapFile();

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  int stride() const { return stride_; }

  /// Append one row; returns its RowId (insert position).
  uint64_t Append(std::span<const int64_t> row);

  /// Append a pre-deleted placeholder row (recovery uses this to keep
  /// RowIds dense with physical slots when replay must skip a rid).
  uint64_t AppendTombstone();

  /// Stamp the page holding `rid` with a log LSN (WAL rule: the page must
  /// not reach a checkpoint before the log is durable past this LSN) and
  /// mark its extent dirty in the buffer pool.
  void StampPageLsn(uint64_t rid, uint64_t lsn);
  /// LSN of the last logged mutation on the page holding `rid` (0 = clean
  /// since load).
  uint64_t PageLsn(uint64_t rid) const;

  /// Fetch a row by id (random page access); `out` needs stride capacity.
  Status Fetch(uint64_t rid, int64_t* out, QueryMetrics* m) const;

  /// Overwrite a row in place.
  Status Update(uint64_t rid, std::span<const int64_t> row, QueryMetrics* m);

  /// Logical delete.
  Status Delete(uint64_t rid, QueryMetrics* m);

  /// Bring a logically-deleted slot back to life with the given image.
  /// Recovery undoes a checkpointed loser DELETE this way: the checkpoint
  /// padded the rid with a tombstone, and the WAL carries the old row.
  /// kNotFound if the rid is out of range; kCorruption if the slot is
  /// live (undo must never clobber surviving data).
  Status Resurrect(uint64_t rid, std::span<const int64_t> row);

  /// Full sequential scan of live rows; `fn` returns false to stop early
  /// (still OK). Non-OK only on an injected/propagated I/O failure.
  Status Scan(const std::function<bool(uint64_t, const int64_t*)>& fn,
              QueryMetrics* m) const;

  /// Scan restricted to rows [begin_rid, end_rid) — parallel partitioning.
  Status ScanRange(uint64_t begin_rid, uint64_t end_rid,
                   const std::function<bool(uint64_t, const int64_t*)>& fn,
                   QueryMetrics* m) const;

  uint64_t num_rows() const { return num_rows_; }
  uint64_t live_rows() const {
    const uint64_t n = num_rows_, d = deleted_rows_;
    return n > d ? n - d : 0;
  }
  uint64_t num_pages() const { return num_pages_; }
  uint64_t size_bytes() const { return num_pages() * kPageBytes; }
  int rows_per_page() const { return rows_per_page_; }

 private:
  struct Page {
    std::vector<int64_t> data;     // rows_per_page * stride slots
    std::vector<bool> deleted;
    int count = 0;
    ExtentId extent = kInvalidExtent;
    /// pageLSN: last logged mutation applied to this page (0 = none).
    uint64_t lsn = 0;
  };

  Page* PageFor(uint64_t rid, int* slot) const;

  int stride_;
  BufferPool* pool_;
  int rows_per_page_;
  std::vector<std::unique_ptr<Page>> pages_;
  /// Size fields the planner reads unlatched (common/relaxed.h).
  Relaxed<uint64_t> num_pages_ = 0;
  Relaxed<uint64_t> num_rows_ = 0;
  Relaxed<uint64_t> deleted_rows_ = 0;
};

}  // namespace hd
