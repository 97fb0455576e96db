// Cooperative shared scans (ROADMAP item 1; cf. ClockScan / SharedDB).
//
// Concurrent CSI scans of the same table attach to one in-flight circular
// pass over its row groups. A pass maintains a small ring of slots; each
// slot holds the dense decoded image of one row group (DecodedGroup). The
// first consumer to need the next group claims a free slot and decodes it
// (paying the segment fetch + decode ONCE); every consumer attached at
// claim time then evaluates its own predicates against the shared image —
// directly in the value domain, since the image includes predicate
// columns — and emits selection-vector batches into its own operator
// tree (ColumnBatch::sel — no per-consumer gather). A consumer records the
// pass position at attach, consumes groups in circular order, and detaches
// after a full wrap — so N concurrent queries pay ~1× decode instead of N×.
//
// Correctness: every consumer scans its own pinned CsiReadView, and a pass
// decodes from the view of the consumer that started it. A consumer
// attaches only to a pass whose view has the same row-group version as its
// own — the same row groups, delete bitmaps and delete-buffer locators —
// so a shared image is exactly what its private scan would have decoded.
// A consumer whose view is newer (or older) starts its own pass. No latch
// is held while a pass runs. The delta store is NOT part of the pass —
// each consumer scans its own view's delta rows after its wrap.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "columnstore/columnstore.h"
#include "common/metrics.h"
#include "common/status.h"

namespace hd {

struct ScanSchedulerOptions {
  /// Decoded row groups in flight per pass. More slots = more decode
  /// pipelining (slow consumers lag behind fast decoders) at the cost of
  /// slot_count × rowgroup_size × (cols+1) × 8 bytes of peak memory.
  int ring_slots = 4;
};

/// Process-wide shared-scan coordinator. Thread-safe; one instance is
/// typically shared by every ExecContext that opts in.
class ScanScheduler {
 public:
  explicit ScanScheduler(ScanSchedulerOptions opts = ScanSchedulerOptions());
  ~ScanScheduler();

  ScanScheduler(const ScanScheduler&) = delete;
  ScanScheduler& operator=(const ScanScheduler&) = delete;

  /// Scan every row group of `view` through the shared pass for its
  /// row-group version (joining the in-flight pass when one exists,
  /// starting one otherwise). Semantically equivalent to
  ///   view->ScanGroups(0, view->num_row_groups(), ...)
  /// except batches may arrive in circular (not ascending) group order and
  /// may carry ColumnBatch::sel. Blocks until this consumer has seen every
  /// group (or `fn` returned false / an error occurred). The caller must
  /// scan the view's delta rows itself afterwards.
  Status Scan(const CsiViewPtr& view, const std::vector<int>& cols_needed,
              const std::vector<SegPredicate>& preds,
              const std::function<bool(const ColumnBatch&)>& fn,
              QueryMetrics* m, bool need_locators);

  /// Passes ever started / consumer attaches (tests and benches; the same
  /// values feed the scan.* telemetry counters).
  uint64_t passes_started() const;
  uint64_t attaches() const;
  /// Passes currently in flight. A pass is erased when its last consumer
  /// detaches, so 0 means no consumer is attached anywhere — the
  /// "no leaked scheduler attachments" probe the server tests use after
  /// abrupt client disconnects.
  size_t active_passes() const;

 private:
  struct Slot;
  struct Consumer;
  struct Pass;

  /// Detach `me` from `pass`: release claimed-but-unconsumed slots in its
  /// window, drop it from the consumer list, erase the pass when it was
  /// the last consumer.
  void Detach(const std::shared_ptr<Pass>& pass, Consumer* me);

  ScanSchedulerOptions opts_;
  mutable std::mutex mu_;  // guards passes_; ordered before Pass::mu
  /// In-flight passes by row-group version (unique across indexes).
  std::map<uint64_t, std::shared_ptr<Pass>> passes_;
  uint64_t passes_started_ = 0;
  uint64_t attaches_ = 0;
};

}  // namespace hd
