// Table: schema + primary storage + index list + DML fan-out.
//
// Mirrors SQL Server's physical design space (Section 2): the primary
// structure is a heap, a clustered B+ tree, or a primary columnstore;
// secondaries are B+ trees (any number) or one columnstore per table.
//
// Every row has a stable RowId (insert sequence). A clustered B+ tree
// appends the RowId as a hidden uniquifier key column (SQL Server's trick
// for non-unique clustered keys); secondary B+ trees do the same and their
// payload carries included columns plus the primary key columns needed to
// address the clustered index.
//
// Index list: a clustered B+ tree or a primary columnstore is one more
// TableIndex entry, at the front of the list and with an empty name; the
// clustered tree's key columns are the primary key and its payload is the
// whole row. Only a heap sits outside the list, because its RowId is a
// physical slot. Each DML operation has one applier per structure kind
// (B+ tree insert / delete / payload update, columnstore insert /
// statement-granular delete; a key-changing update is delete + insert),
// and the same appliers serve the primary entry, every secondary, the
// statements and recovery's redo and loser undo. One loader with explicit
// RowIds builds the heap and every entry for BulkLoadPacked, SetPrimary
// and RecoverLoad.
#pragma once

#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "catalog/index_def.h"
#include "catalog/stats.h"
#include "catalog/string_dict.h"
#include "columnstore/columnstore.h"
#include "common/latch.h"
#include "common/schema.h"
#include "storage/heap_file.h"
#include "storage/wal.h"

namespace hd {

enum class PrimaryKind { kHeap, kBTree, kColumnStore };

/// A materialized B+ tree or columnstore: the clustered B+ tree or the
/// primary columnstore (`def.is_primary`, empty name) or a secondary.
struct TableIndex {
  IndexDef def;
  /// Columns stored in a B+ tree entry's payload, in payload order: the
  /// whole row for the clustered tree; the declared included columns plus
  /// (deduped) clustered-key columns for a secondary.
  std::vector<int> payload_cols;
  std::unique_ptr<BTree> btree;
  std::unique_ptr<ColumnStoreIndex> csi;

  uint64_t size_bytes() const {
    return btree ? btree->size_bytes() : csi->size_bytes();
  }
};

/// A row reference: stable id + current packed image. DML APIs take these
/// so secondary index maintenance can compute old keys.
struct RowRef {
  int64_t rid = -1;
  PackedRow row;
};

class Table {
 public:
  Table(std::string name, Schema schema, BufferPool* pool);
  ~Table();

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  int num_columns() const { return schema_.num_columns(); }
  BufferPool* buffer_pool() const { return pool_; }

  // ---------- value packing ----------

  /// Pack a Value for column `col` for storage; may extend a dictionary.
  int64_t PackValue(int col, const Value& v);
  /// Pack a constant for a comparison against column `col` without
  /// extending dictionaries. `dir` handles absent dictionary strings:
  /// -1 = round down (floor code), +1 = round up (floor code + 1);
  /// 0 = equality (absent -> *found=false).
  int64_t PackBound(int col, const Value& v, int dir, bool* found) const;
  Value UnpackValue(int col, int64_t packed) const;
  PackedRow PackRow(const Row& r);
  Row UnpackRow(const PackedRow& p) const;

  // ---------- loading ----------

  /// Bulk load rows into the current primary structure. Builds string
  /// dictionaries sorted, assigns RowIds, updates stats, and (re)builds
  /// any existing secondary indexes.
  void BulkLoad(const std::vector<Row>& rows);
  /// Column-major packed bulk load (fast path for generators). Dictionary
  /// columns must already be packed via PackValue.
  void BulkLoadPacked(std::vector<std::vector<int64_t>> cols);

  // ---------- physical design ----------

  /// Change the primary structure. Rebuilds secondaries; RowIds are
  /// reassigned densely, in the order the old primary stored the rows.
  Status SetPrimary(PrimaryKind kind, std::vector<int> key_cols = {});

  Status CreateSecondaryBTree(const std::string& name,
                              std::vector<int> key_cols,
                              std::vector<int> included_cols);
  /// One columnstore per table (SQL Server restriction); stores all
  /// columns (the paper's DTA design choice (ii), Section 4.3).
  /// `sort_col >= 0` builds a *sorted* columnstore on that column — the
  /// Section 4.5 extension (Vertica-style projection order), enabling
  /// aggressive segment elimination for predicates on it.
  Status CreateSecondaryColumnStore(const std::string& name,
                                    int sort_col = -1);
  Status DropIndex(const std::string& name);
  void DropAllSecondaries();
  /// Materialize an IndexDef (primary or secondary).
  Status ApplyIndexDef(const IndexDef& def);

  PrimaryKind primary_kind() const { return primary_kind_; }
  const std::vector<int>& primary_key_cols() const { return primary_keys_; }
  HeapFile* heap() const { return heap_.get(); }
  BTree* primary_btree() const {
    return primary_kind_ == PrimaryKind::kBTree ? indexes_[0]->btree.get()
                                                : nullptr;
  }
  ColumnStoreIndex* primary_csi() const {
    return primary_kind_ == PrimaryKind::kColumnStore ? indexes_[0]->csi.get()
                                                      : nullptr;
  }
  /// The secondary indexes: the index list without its primary entry.
  std::span<const std::unique_ptr<TableIndex>> secondaries() const {
    return std::span(indexes_).subspan(
        primary_kind_ == PrimaryKind::kHeap ? 0 : 1);
  }
  TableIndex* FindSecondary(const std::string& name) const;
  /// A secondary by name, or the primary entry for an empty name (null
  /// for a heap primary).
  TableIndex* FindIndex(const std::string& name) const;
  /// The table's columnstore (primary or secondary), if any.
  ColumnStoreIndex* any_csi() const;
  bool has_secondary_csi() const;

  // ---------- DML ----------
  //
  // When a WAL is bound (BindWal), every DML call logs its mutation BEFORE
  // applying it (WAL rule) under `wal_txn`. `wal_txn` = 0 with a bound WAL
  // self-wraps the statement: an implicit transaction id is allocated and
  // committed (with the mode's durability wait) before returning — direct
  // callers get per-statement durability without touching txn machinery.
  // The executor always passes an explicit id and commits after releasing
  // the physical latch (waiting on an fsync under the exclusive latch
  // would serialize all traffic through the commit window).

  /// Insert one packed row everywhere; `*rid_out` (optional) receives its
  /// RowId. On failure the row is absent from every structure: a failed
  /// index insert compensates by deleting the copies already made, so a
  /// statement-level retry re-inserts cleanly.
  Status InsertPacked(const PackedRow& row, QueryMetrics* m,
                      int64_t* rid_out = nullptr, uint64_t wal_txn = 0);
  Status InsertRow(const Row& r, QueryMetrics* m, int64_t* rid_out = nullptr) {
    return InsertPacked(PackRow(r), m, rid_out);
  }
  /// Delete rows (statement-granular so primary-CSI delete scans once).
  Status DeleteRows(const std::vector<RowRef>& rows, QueryMetrics* m,
                    uint64_t wal_txn = 0);
  /// Update rows: news[i] replaces rows[i] (RowIds preserved).
  Status UpdateRows(const std::vector<RowRef>& rows,
                    const std::vector<PackedRow>& news, QueryMetrics* m,
                    uint64_t wal_txn = 0);

  /// Fetch one row's full packed image by locator. `pk_hint` must carry
  /// the clustered key column values when the primary is a B+ tree (a
  /// secondary index's payload provides them); ignored otherwise. For a
  /// primary columnstore this is a pruned row-group scan — expensive by
  /// design, matching Section 2.
  Status FetchRow(int64_t rid, std::span<const int64_t> pk_hint,
                  PackedRow* out, QueryMetrics* m) const;

  // ---------- whole-table access ----------

  /// Scan every live row in primary storage order.
  void ScanAll(const std::function<bool(int64_t rid, const int64_t*)>& fn,
               QueryMetrics* m) const;

  /// Every live row, column-major, with its rid, in primary storage order.
  void Collect(std::vector<std::vector<int64_t>>* cols,
               std::vector<int64_t>* rids) const;

  /// Block-level sample in storage order: whole blocks of `block_rows`
  /// rows are taken with probability `ratio` (the biased sampling regime
  /// Section 4.4's estimators must cope with).
  void SampleBlocks(double ratio, uint64_t seed, int block_rows,
                    std::vector<std::vector<int64_t>>* cols) const;

  // ---------- stats ----------

  /// Recompute table statistics from a block sample (or full data when
  /// small).
  void Analyze();
  const TableStats& stats() const { return stats_; }

  uint64_t num_rows() const;
  uint64_t primary_size_bytes() const;
  const StringDict* dict(int col) const { return dicts_[col].get(); }

  // ---------- durability (storage/wal.h, catalog/recovery.h) ----------

  /// Bind this table to a WAL under a stable catalog id. After binding,
  /// DML logs logical records before applying them. Schema/DDL/bulk loads
  /// are NOT logged — they become durable at the next checkpoint (see
  /// DESIGN.md "Durability & recovery": DDL must be followed by an
  /// explicit Database::Checkpoint for recovery to replay correctly).
  void BindWal(WalManager* wal, uint32_t table_id) {
    wal_ = wal;
    table_id_ = table_id;
  }
  WalManager* wal() const { return wal_; }
  uint32_t table_id() const { return table_id_; }
  /// LSN of the last logged mutation applied to this table; records at or
  /// below the checkpointed value are skipped during redo (the pageLSN
  /// comparison, at table granularity for the logical-redo scheme).
  uint64_t applied_lsn() const { return applied_lsn_; }
  void set_applied_lsn(uint64_t lsn) { applied_lsn_ = lsn; }
  int64_t next_rid() const { return next_rid_; }

  /// Packed row image -> loggable row: string columns travel as text (so
  /// recovery can rebuild dictionary codes), NULLs as explicit nulls.
  WalRow ToWalRow(const PackedRow& row) const;
  /// Loggable row -> packed image against THIS instance's dictionaries
  /// (GetOrAdd; replay in LSN order reproduces code allocation).
  PackedRow FromWalRow(const WalRow& row);

  /// Run the tuple mover over every columnstore on this table under the
  /// exclusive physical latch, logging a self-committed "reorg applied"
  /// record per index FIRST — a crash mid-mover replays to the old or new
  /// row-group image, never a torn mix.
  Status ReorganizeColumnstores();

  // Recovery-side appliers (catalog/recovery.cc). Only called before the
  // WAL is bound, so nothing here re-logs. Rid-explicit: replay must
  // reproduce the exact locators the log references.

  /// Restore a column dictionary image from a checkpoint.
  void RecoverRestoreDict(int col, std::vector<std::string> strings,
                          bool sorted);
  /// Install a checkpointed physical design and its rows (packed against
  /// the restored dicts) with explicit rids, building each structure once;
  /// `next_rid` restores the allocation point. Heap primaries pad rid gaps
  /// with tombstones so positions stay faithful.
  Status RecoverLoad(PrimaryKind kind, std::vector<int> primary_keys,
                     const std::vector<IndexDef>& secondaries,
                     std::vector<std::vector<int64_t>> cols,
                     std::vector<int64_t> rids, int64_t next_rid);
  /// Redo one logged insert (or undo one loser delete) at its original rid:
  /// the statements' insert applier.
  Status RecoverInsert(int64_t rid, const PackedRow& row);
  Status RecoverUpdate(int64_t rid, const PackedRow& old_row,
                       const PackedRow& new_row);
  Status RecoverDelete(int64_t rid, const PackedRow& old_row);

  /// Physical latch: index structures are not internally latched, so
  /// concurrent statements take this shared (reads) or exclusive (DML).
  /// Logical concurrency control (row/table locks, versioning) lives in
  /// the txn module; this only protects physical structure integrity.
  /// Writer-preferring (common/latch.h): continuous analytic readers must
  /// not starve DML — see the FairSharedMutex header comment.
  FairSharedMutex& phys_latch() const { return phys_latch_; }

 private:
  /// Replace the primary: drop the old primary entry (and heap), set the
  /// kind, and put an unbuilt entry at the front of the index list for a
  /// clustered B+ tree or a primary columnstore.
  Status SetPrimaryEntry(PrimaryKind kind, std::vector<int> key_cols);
  /// Validate `def` and append its unbuilt entry to the index list.
  Status AddIndex(IndexDef def);
  /// AddIndex, then build the new entry from the table's rows.
  Status CreateIndex(IndexDef def);
  /// The one loader: rows with explicit rids become the heap (rid order,
  /// gaps padded with tombstones) and every entry of the index list.
  void LoadRows(std::vector<std::vector<int64_t>> cols,
                std::vector<int64_t> rids, int64_t next_rid);
  /// Build index-list entries [first, end) from rows in primary storage
  /// order: B+ trees first, then the columnstore takes the columns.
  void BuildIndexes(size_t first, std::vector<std::vector<int64_t>> cols,
                    std::vector<int64_t> rids);

  /// Insert applier over the heap and every index; `*held` is set once a
  /// structure holds the row. A heap slot past the end pads the gap with
  /// tombstones; an existing one (recovery undoing a delete) is resurrected.
  Status ApplyInsert(int64_t rid, const PackedRow& row, QueryMetrics* m,
                     bool* held);
  /// The statement frame every DML call shares: log each record under
  /// `txn` before anything is applied (WAL rule), run `apply(txn)`, stamp
  /// the structures with the last LSN, and commit — or abort on failure —
  /// a statement that `txn` = 0 self-wraps.
  template <typename Apply>
  Status RunStatement(WalRecordType type, uint64_t txn,
                      std::span<const RowRef> rows,
                      std::span<const PackedRow> news, Apply apply);
  /// Stamp the structures a logged statement touched with its LSN (pageLSN
  /// plumbing + buffer-pool dirty tracking) and advance applied_lsn_.
  void StampLsn(std::span<const RowRef> rows, uint64_t lsn);

  std::string name_;
  Schema schema_;
  BufferPool* pool_;
  std::vector<std::unique_ptr<StringDict>> dicts_;  // null for non-strings

  PrimaryKind primary_kind_ = PrimaryKind::kHeap;
  std::vector<int> primary_keys_;
  std::unique_ptr<HeapFile> heap_;  // heap primaries only
  /// The index list: the primary entry first unless the primary is a
  /// heap, then the secondaries.
  std::vector<std::unique_ptr<TableIndex>> indexes_;

  int64_t next_rid_ = 0;
  TableStats stats_;
  mutable FairSharedMutex phys_latch_;

  WalManager* wal_ = nullptr;  // null = durability off / recovery running
  uint32_t table_id_ = 0;
  uint64_t applied_lsn_ = 0;
};

}  // namespace hd
