// Columnstore index (CSI): row groups + delta store + delete handling.
//
// Faithful to the SQL Server design the paper describes in Section 2:
//   - Bulk loads compress directly into row groups; trickle inserts land
//     in a delta store (a B+ tree) scanned row-at-a-time by queries.
//   - Secondary CSIs take deletes as cheap inserts into a *delete buffer*
//     (another B+ tree of row locators); scans pay an anti-semi-join
//     against it.
//   - Primary CSIs have no delete buffer: a delete must locate the row in
//     the compressed row groups (a scan) to set its bit in the *delete
//     bitmap*, keeping scans fast but making small deletes expensive.
//   - Reorganize() models the background tuple mover: compresses the delta
//     store into row groups and folds the delete buffer into bitmaps.
//
// Queries never scan the live index. They scan a CsiReadView: an immutable,
// refcounted image pinned under the table latch (Pin). The view shares the
// index's row groups and delete bitmaps (mutators publish new lists and
// copy a bitmap before changing it, so a pinned image never changes) and
// copies what is mutable in place: the delete-buffer locators and the
// delta rows the statement reads. Once pinned, a scan needs no latch, so
// writers do not wait for analytic queries (DESIGN.md, "Latching and read
// views").
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "btree/btree.h"
#include "columnstore/row_group.h"
#include "common/bloom.h"
#include "common/relaxed.h"
#include "common/status.h"

namespace hd {

/// Vectorized scan batch size (SQL Server batch mode operates on ~900-row
/// batches; we use a cache-friendly 4096).
constexpr int kBatchSize = 4096;

/// A batch of decoded column values handed to batch-mode operators.
///
/// Two layouts, distinguished by `sel`:
///   - sel == nullptr (compact): row j of the batch lives at index j of
///     every column array (and of `locators`). ScanGroups always emits
///     this form, and an image scan emits it for a batch in which every
///     row passes.
///   - sel != nullptr (selection-vector): the column arrays are a *dense*
///     image of a wider range and row j lives at physical index sel[j]
///     (ascending, 0 <= j < count) of every column array and of
///     `locators`. Image scans (ScanDecodedGroup over a shared pass's
///     image, ScanDelta over the pinned delta rows) emit this form, so
///     consumers never pay a gather for rows a predicate dropped — the
///     aggregate/projection kernels apply the indirection themselves.
struct ColumnBatch {
  int count = 0;
  /// One pointer per requested column, each `count` values (or a dense
  /// slice indexed through `sel`).
  std::vector<const int64_t*> cols;
  /// Row locators (base RowId or packed primary key), `count` values.
  const int64_t* locators = nullptr;
  /// Selection indices into the dense column arrays; nullptr = compact.
  const uint32_t* sel = nullptr;
};

/// Inclusive range predicate on one stored column, in packed value space.
struct SegPredicate {
  int col = 0;  // position within this index's column list
  int64_t lo = INT64_MIN;
  int64_t hi = INT64_MAX;
};

/// Bloom pre-filter pushed into a scan by a hash join (sideways
/// information passing): the decoded values of stored column `col` are
/// tested against the join's build-side filter before any *other* column
/// is materialized, so rows that cannot join never enter the pipeline.
/// False positives only pass extra rows (the exact probe drops them);
/// a joinable row is never filtered. `m` is the owning *join* operator's
/// metrics block — join_bloom_checks / join_bloom_filtered are work done
/// on that join's behalf, per the attribution contract in metrics.h.
struct ScanKeyFilter {
  int col = 0;
  const BlockedBloomFilter* bloom = nullptr;
  QueryMetrics* m = nullptr;
};

/// One aggregate the scan layer may answer entirely in the encoded domain
/// (TryPushdownAggregates). `col` is a stored-column position; ignored for
/// kCount.
struct PushAggSpec {
  enum class Fn : uint8_t { kCount, kSum, kMin, kMax };
  Fn fn = Fn::kCount;
  int col = 0;
};

/// Accumulator for one pushed-down aggregate, merged across row groups.
/// kCount fills `count`; kSum fills `sum` + `count` (rows contributing,
/// for AVG); kMin/kMax fill `minmax` with `has` set once any row matched.
struct PushAggState {
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t minmax = 0;
  bool has = false;
};

/// A row group as an index or a view holds it: the immutable compressed
/// data plus the delete bitmap current when the list was published.
struct CsiGroup {
  std::shared_ptr<const RowGroup> rows;
  /// Null until the group's first delete.
  std::shared_ptr<const DeleteBitmap> deletes;

  bool IsDeleted(size_t pos) const {
    return deletes != nullptr && deletes->IsDeleted(pos);
  }
  uint64_t deleted_count() const {
    return deletes != nullptr ? deletes->count() : 0;
  }
  bool has_deletes() const { return deleted_count() > 0; }
};
using CsiGroupList = std::vector<CsiGroup>;

/// Dense decoded image of one row group — the payload of a shared-scan
/// ring slot. One decode is produced by whichever consumer claims the
/// group; every attached consumer then evaluates its own predicates
/// against the dense arrays via CsiReadView::ScanDecodedGroup. A read
/// view holds its pinned delta rows in the same form, with group = -1.
struct DecodedGroup {
  /// Row group index, or -1 for a view's delta rows.
  int group = -1;
  size_t rows = 0;
  /// Stored-column positions decoded, parallel to `values`.
  std::vector<int> cols;
  std::vector<std::vector<int64_t>> values;
  /// Dense locator decode; empty when no consumer (and no delete
  /// filtering) needs locators.
  std::vector<int64_t> locators;
  /// Decoded bytes this image represents (8 bytes × rows × arrays) —
  /// what each additional consumer saves by not decoding privately.
  uint64_t decode_bytes = 0;

  const int64_t* column(int col) const {
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == col) return values[i].data();
    }
    return nullptr;
  }
};

/// Immutable image of a ColumnStoreIndex as of ColumnStoreIndex::Pin: the
/// row-group list with each group's delete bitmap, the delete-buffer
/// locators, and the delta rows (the pinned columns plus locators,
/// column-major). Every method is const and reads only the view, so
/// any number of threads may scan one view without the table latch, while
/// the index keeps changing.
class CsiReadView {
 public:
  /// Identity of the row-group image: the group list, every delete bitmap
  /// and the delete buffer. Two views with the same version scan the same
  /// row groups and filter the same deleted rows (their delta rows may
  /// differ). Unique across all indexes in the process.
  uint64_t version() const { return version_; }
  int num_columns() const { return ncols_; }
  int num_row_groups() const { return static_cast<int>(groups_->size()); }
  const CsiGroup& group(int g) const { return (*groups_)[g]; }
  uint64_t delta_rows() const { return delta_.rows; }
  /// Delete-buffer locators (secondary CSI; empty for a primary).
  const std::unordered_set<int64_t>& dead() const { return dead_; }
  /// Inclusive packed range [*lo, *hi] of stored column `col` over every
  /// row group (segment min/max, deleted rows included) and the pinned
  /// delta rows. False when the view has no rows, or has delta rows but
  /// `col` was not pinned.
  bool ColumnRange(int col, int64_t* lo, int64_t* hi) const;

  /// Vectorized scan of row groups [group_begin, group_end) — the unit of
  /// parallelism (one row group = one morsel). Decodes `cols_needed`,
  /// applies `preds` in the encoded domain (dictionary code space, per-run
  /// RLE evaluation, min/max all-pass fast path) with segment elimination,
  /// filters deleted rows (bitmap + delete-buffer anti-join), and invokes
  /// `fn` per batch. `fn` returns false to stop.
  /// `need_locators` = false lets read-only scans skip decoding locator
  /// segments (they are still decoded when delete filtering requires it);
  /// ColumnBatch::locators is null in that case.
  /// `key_filters`, when non-null, are join Bloom pre-filters evaluated
  /// on the decoded key column(s) after predicate/delete filtering and
  /// before any other column is gathered (each filter's column must be in
  /// `cols_needed`).
  Status ScanGroups(int group_begin, int group_end,
                    const std::vector<int>& cols_needed,
                    const std::vector<SegPredicate>& preds,
                    const std::function<bool(const ColumnBatch&)>& fn,
                    QueryMetrics* m, bool need_locators = true,
                    const std::vector<ScanKeyFilter>* key_filters =
                        nullptr) const;

  /// Scan of the pinned delta rows (queries must union this in): the
  /// image scan of ScanDecodedGroup over the delta image, plus the Bloom
  /// step. Every column in `cols_needed`, `preds` and `key_filters` must
  /// have been pinned. Delta rows are always live, and their locators are
  /// always emitted. Batches may carry ColumnBatch::sel. `m` is charged
  /// nothing: the rows were read (and charged) at pin time; Bloom checks
  /// land on each filter's own metrics block.
  Status ScanDelta(const std::vector<int>& cols_needed,
                   const std::vector<SegPredicate>& preds,
                   const std::function<bool(const ColumnBatch&)>& fn,
                   QueryMetrics* m,
                   const std::vector<ScanKeyFilter>* key_filters =
                       nullptr) const;

  /// Encoded-domain aggregate pushdown over row group `g` (Fig. 4
  /// single-column aggregates): COUNT = popcount of the selection bitmap,
  /// SUM = Σ code·runlen (RLE) / packed-domain sums, MIN/MAX from segment
  /// min/max or the sorted dictionary — zero rows decoded. Returns true
  /// and folds each spec into acc[i] when EVERY spec is answerable for
  /// this group; returns false (acc untouched) when the group has deleted
  /// rows, the delete buffer is non-empty, or a spec needs row
  /// materialization (e.g. SUM under a predicate on a different column) —
  /// the caller then falls back to ScanGroups for the group. `preds`
  /// follows ScanGroups semantics. On success `*rows_aggregated` (when
  /// non-null) is set to the number of rows that matched the predicates —
  /// the rows the aggregate logically consumed (operator row-flow
  /// accounting).
  bool TryPushdownAggregates(int g, const std::vector<SegPredicate>& preds,
                             std::span<const PushAggSpec> specs,
                             PushAggState* acc, QueryMetrics* m,
                             uint64_t* rows_aggregated = nullptr) const;

  /// Decode row group `g` densely (all rows, no predicate) into `out`,
  /// reusing its buffers. Touches the segments (I/O accounting) and
  /// charges rows_decoded to `m` — the decoder's metrics; sharing
  /// consumers are charged nothing here.
  Status DecodeGroupDense(int g, const std::vector<int>& cols,
                          bool want_locators, DecodedGroup* out,
                          QueryMetrics* m) const;

  /// Consumer side of a shared scan: translate `preds` into row group
  /// `dg.group`'s encoded domain for group elimination (as ScanGroups
  /// does), evaluate the rest on the dense values, filter deleted rows,
  /// and emit batches that point INTO the decoded image — sparse batches
  /// carry a selection vector (ColumnBatch::sel) instead of gathering, so
  /// the consumer pays no per-row materialization. `dg` must contain
  /// every column in `cols_needed` and `preds` (and locators when delete
  /// filtering or `need_locators` requires them). `*stopped` is set when
  /// `fn` returned false (the caller detaches from the pass). Charges
  /// rows_scanned / rows_selected / rows_output to `m` but NOT
  /// rows_decoded.
  Status ScanDecodedGroup(const DecodedGroup& dg,
                          const std::vector<int>& cols_needed,
                          const std::vector<SegPredicate>& preds,
                          const std::function<bool(const ColumnBatch&)>& fn,
                          QueryMetrics* m, bool need_locators,
                          bool* stopped) const;

  /// Every live row (row groups, then delta) as (locator, all stored
  /// columns) — for maintenance paths that rebuild or sample a table. The
  /// view must have been pinned with every column.
  Status ForEachRow(const std::function<bool(int64_t, const int64_t*)>& fn,
                    QueryMetrics* m) const;

 private:
  friend class ColumnStoreIndex;
  CsiReadView() = default;

  /// The one scan over a dense image, behind ScanDecodedGroup and
  /// ScanDelta: value-domain predicates (after row-group translation when
  /// `img` is a row group), then the live-row filter (row groups only),
  /// then `key_filters`.
  Status ScanImage(const DecodedGroup& img,
                   const std::vector<int>& cols_needed,
                   const std::vector<SegPredicate>& preds,
                   const std::function<bool(const ColumnBatch&)>& fn,
                   QueryMetrics* m, bool need_locators,
                   const std::vector<ScanKeyFilter>* key_filters,
                   bool* stopped) const;

  int ncols_ = 0;
  BufferPool* pool_ = nullptr;
  uint64_t version_ = 0;
  std::shared_ptr<const CsiGroupList> groups_;
  std::unordered_set<int64_t> dead_;
  /// The pinned delta rows (group = -1): the pinned columns plus every
  /// row's locator.
  DecodedGroup delta_;
};

using CsiViewPtr = std::shared_ptr<const CsiReadView>;

class ColumnStoreIndex {
 public:
  enum class Kind { kPrimary, kSecondary };

  /// `num_columns` stored columns (the table maps its schema onto them).
  ColumnStoreIndex(Kind kind, int num_columns, BufferPool* pool,
                   CsiOptions opts = CsiOptions());
  /// Retracts this index's contribution to the process health gauges.
  ~ColumnStoreIndex();

  Kind kind() const { return kind_; }
  int num_columns() const { return ncols_; }
  const CsiOptions& options() const { return opts_; }

  /// WAL rule plumbing (storage/wal.h): LSN of the last logged mutation
  /// (delta insert / delete / reorg) applied to this index. Stamped by
  /// catalog::Table; checked at checkpoint time.
  uint64_t recovery_lsn() const { return recovery_lsn_; }
  void set_recovery_lsn(uint64_t lsn) {
    if (lsn > recovery_lsn_) recovery_lsn_ = lsn;
  }

  /// Pin a read view: shares the current row groups and delete bitmaps,
  /// copies the delete-buffer locators, and materializes the delta rows'
  /// `delta_cols` (stored-column positions) plus their locators. The
  /// delete-buffer and delta reads are charged to `m`. The caller holds the
  /// table latch (shared or exclusive) for the duration of the call only.
  Result<CsiViewPtr> Pin(const std::vector<int>& delta_cols,
                         QueryMetrics* m) const;
  /// Pin a read view with every delta column.
  Result<CsiViewPtr> Pin(QueryMetrics* m = nullptr) const;

  /// Bulk load column-major data; `locators[i]` identifies row i in the
  /// base table (RowId, or the row's own id when this is the primary).
  void BulkLoad(std::vector<std::vector<int64_t>> cols,
                std::vector<int64_t> locators);

  /// Trickle-insert one row into the delta store, then close the delta
  /// (CompressDelta) once it reaches CsiOptions::rowgroup_size rows or,
  /// when the index has compressed rows, once its raw bytes exceed the
  /// compressed row groups' bytes — so the delta never outweighs the
  /// compressed data. A failed automatic delta flush does NOT fail the
  /// insert — the delta simply stays resident (scans union it) and the
  /// next insert retries.
  Status Insert(std::span<const int64_t> row, int64_t locator,
                QueryMetrics* m);

  /// Statement-level delete of a set of locators. Secondary: append each
  /// to the delete buffer. Primary: scan row-group locator segments to
  /// find positions and set delete bitmap bits (the expensive path).
  Status DeleteBatch(std::span<const int64_t> locators, QueryMetrics* m);

  /// Latched point read (primary CSI): the live copy of the row with
  /// `locator`, all stored columns into `out`. Pruned scan of the locator
  /// segments, then the delta store. NotFound when absent.
  Status FetchRow(int64_t locator, int64_t* out, QueryMetrics* m) const;

  /// Number of live rows (compressed + delta - deleted).
  uint64_t num_rows() const;
  uint64_t compressed_rows() const { return compressed_rows_; }
  uint64_t delta_rows() const { return delta_ ? delta_->num_entries() : 0; }
  uint64_t delete_buffer_rows() const {
    return delete_buffer_ ? delete_buffer_->num_entries() : 0;
  }
  int num_row_groups() const { return num_groups_; }

  /// Compressed size (all row groups) plus delta/delete structures.
  uint64_t size_bytes() const;
  /// Compressed bytes of one stored column across row groups — the
  /// per-column size the what-if API needs (Section 4.2).
  uint64_t column_size_bytes(int col) const { return column_bytes_[col]; }

  /// Tuple mover: fold delta + delete buffer into compressed row groups.
  /// Fails (leaving the index fully queryable, reorganize deferred) when
  /// the `csi.reorganize` failpoint or an underlying read fires.
  Status Reorganize();

  /// Compress the delta store into a new row group (invoked by Insert when
  /// the delta closes — at the row-group size or once it outweighs the
  /// compressed data — like SQL Server's tuple mover closing a delta row
  /// group). On failure — the
  /// `csi.compress_delta` failpoint or a propagated I/O error — the delta
  /// store is left intact and queryable; the flush is simply deferred.
  Status CompressDelta(QueryMetrics* m);

  /// Fold the delete buffer into per-row-group delete bitmaps (the
  /// background compaction of Section 2). Invoked automatically past
  /// CsiOptions::delete_buffer_compact_threshold. On mid-way failure the
  /// buffer is kept (bits already folded stay set — scans consult both, so
  /// no row resurrects) and compaction is deferred.
  Status CompactDeleteBuffer(QueryMetrics* m);

 private:
  /// Append row groups built from `cols`/`locators` and publish the list.
  void BuildGroups(std::vector<std::vector<int64_t>> cols,
                   std::vector<int64_t> locators);
  /// Publish `list` as the row-group list (new version, counters).
  void Publish(std::shared_ptr<const CsiGroupList> list);
  /// Set the delete bit of every live row whose locator is in `*want`,
  /// erasing each locator found. Bitmaps are copied before their first
  /// change and the edited list is published, also on a mid-way failure.
  Status MarkDeleted(std::unordered_set<int64_t>* want, QueryMetrics* m);
  /// Snapshot the delete-buffer locators (charged as a B+ tree scan).
  Status SnapshotDeleteBuffer(std::unordered_set<int64_t>* out,
                              QueryMetrics* m) const;

  /// Uncompressed bytes of `rows` rows: stored columns + locator, 8 B each.
  uint64_t RawBytes(uint64_t rows) const { return rows * (ncols_ + 1) * 8; }

  /// Publish the delta between this index's current health stats and what
  /// it last published into the process-wide telemetry gauges
  /// (csi.row_groups, csi.delta_rows, csi.delete_buffer_rows, ... — see
  /// docs/OBSERVABILITY.md). Called after every mutating operation; the
  /// destructor retracts the remainder, so process gauges always equal
  /// the sum over live indexes.
  void SyncTelemetry();

  /// Last values published to the gauges (deltas aggregate correctly
  /// across many live indexes).
  struct Published {
    int64_t row_groups = 0;
    int64_t compressed_rows = 0;
    int64_t deleted_rows = 0;
    int64_t delta_rows = 0;
    int64_t delete_buffer_rows = 0;
    int64_t compressed_bytes = 0;
    int64_t raw_bytes = 0;
  };
  Published published_;

  Kind kind_;
  int ncols_;
  BufferPool* pool_;
  CsiOptions opts_;
  /// The published row-group list. Replaced, never edited in place: views
  /// pinned earlier keep the list (and the groups) they pinned.
  std::shared_ptr<const CsiGroupList> groups_;
  /// Row-group version (CsiReadView::version) of the published state;
  /// bumped by every change to groups_ or the delete buffer.
  uint64_t version_ = 0;
  /// Size counters kept beside groups_, so stats readers never touch it.
  /// The planner reads these unlatched (common/relaxed.h).
  Relaxed<int> num_groups_ = 0;
  Relaxed<uint64_t> compressed_rows_ = 0;
  Relaxed<uint64_t> compressed_deleted_ = 0;
  Relaxed<uint64_t> compressed_bytes_ = 0;
  std::vector<Relaxed<uint64_t>> column_bytes_;

  /// Delta store: B+ tree keyed by insert sequence; payload = row cols +
  /// locator. The side map locates a delta row by locator in O(1) so
  /// statement-level deletes need not scan the delta. The delta and the
  /// delete buffer are cleared in place, never replaced, so unlatched
  /// size readers always dereference a live tree.
  std::unique_ptr<BTree> delta_;
  int64_t delta_seq_ = 0;
  std::unordered_map<int64_t, int64_t> delta_key_of_locator_;

  /// Secondary only: delete buffer keyed by locator.
  std::unique_ptr<BTree> delete_buffer_;

  uint64_t recovery_lsn_ = 0;
};

}  // namespace hd
