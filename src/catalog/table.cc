#include "catalog/table.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/rng.h"

namespace hd {

Table::Table(std::string name, Schema schema, BufferPool* pool)
    : name_(std::move(name)), schema_(std::move(schema)), pool_(pool) {
  dicts_.resize(schema_.num_columns());
  for (int c = 0; c < schema_.num_columns(); ++c) {
    if (schema_.column(c).type == ValueType::kString) {
      dicts_[c] = std::make_unique<StringDict>();
    }
  }
  heap_ = std::make_unique<HeapFile>(schema_.num_columns(), pool_);
}

Table::~Table() = default;

// ---------------- value packing ----------------

int64_t Table::PackValue(int col, const Value& v) {
  if (v.is_null()) return INT64_MIN;  // NULLs sort first
  switch (schema_.column(col).type) {
    case ValueType::kString:
      return dicts_[col]->GetOrAdd(v.str());
    case ValueType::kDouble:
      return PackDouble(v.AsDouble());
    default:
      return v.AsInt64();
  }
}

int64_t Table::PackBound(int col, const Value& v, int dir, bool* found) const {
  if (found != nullptr) *found = true;
  if (v.is_null()) return INT64_MIN;
  switch (schema_.column(col).type) {
    case ValueType::kString: {
      const StringDict* d = dicts_[col].get();
      int64_t code = d->Lookup(v.str());
      if (code >= 0) return code;
      if (dir == 0) {
        if (found != nullptr) *found = false;
        return 0;
      }
      const int64_t floor_code = d->FloorCode(v.str());
      return dir < 0 ? floor_code : floor_code + 1;
    }
    case ValueType::kDouble:
      return PackDouble(v.AsDouble());
    default:
      return v.AsInt64();
  }
}

Value Table::UnpackValue(int col, int64_t packed) const {
  if (packed == INT64_MIN) return Value::Null();
  switch (schema_.column(col).type) {
    case ValueType::kString:
      return Value::String(dicts_[col]->At(packed));
    case ValueType::kDouble:
      return Value::Double(UnpackDouble(packed));
    case ValueType::kInt32:
    case ValueType::kDate:
      return Value::Int32(static_cast<int32_t>(packed));
    default:
      return Value::Int64(packed);
  }
}

PackedRow Table::PackRow(const Row& r) {
  assert(static_cast<int>(r.size()) == schema_.num_columns());
  PackedRow p(r.size());
  for (size_t c = 0; c < r.size(); ++c) {
    p[c] = PackValue(static_cast<int>(c), r[c]);
  }
  return p;
}

Row Table::UnpackRow(const PackedRow& p) const {
  Row r(p.size());
  for (size_t c = 0; c < p.size(); ++c) {
    r[c] = UnpackValue(static_cast<int>(c), p[c]);
  }
  return r;
}

// ---------------- index-list entries ----------------

namespace {

using Columns = std::vector<std::vector<int64_t>>;

/// Row positions sorted by (key columns, rid): a B+ tree's entry order,
/// and a heap's storage order when `key_cols` is empty.
std::vector<uint32_t> SortedOrder(const std::vector<int>& key_cols,
                                  const Columns& cols,
                                  const std::vector<int64_t>& rids) {
  std::vector<uint32_t> order(rids.size());
  std::iota(order.begin(), order.end(), 0u);
  auto less = [&](uint32_t a, uint32_t b) {
    for (int kc : key_cols) {
      if (cols[kc][a] != cols[kc][b]) return cols[kc][a] < cols[kc][b];
    }
    return rids[a] < rids[b];
  };
  if (!std::is_sorted(order.begin(), order.end(), less)) {
    std::sort(order.begin(), order.end(), less);
  }
  return order;
}

/// Reorder the rows into `order`, one column at a time.
void Permute(const std::vector<uint32_t>& order, Columns* cols,
             std::vector<int64_t>* rids) {
  bool identity = true;
  for (size_t i = 0; i < order.size() && identity; ++i) identity = order[i] == i;
  if (identity) return;
  std::vector<int64_t> tmp(order.size());
  auto apply = [&](std::vector<int64_t>* v) {
    for (size_t i = 0; i < order.size(); ++i) tmp[i] = (*v)[order[i]];
    v->swap(tmp);
  };
  for (auto& c : *cols) apply(&c);
  apply(rids);
}

/// A B+ tree entry's key for `row`: key columns, then the rid uniquifier.
/// One buffer per thread, so DML allocates nothing per row.
std::span<const int64_t> EntryKey(const TableIndex& ix, const PackedRow& row,
                                  int64_t rid) {
  thread_local std::vector<int64_t> key;
  key.clear();
  for (int kc : ix.def.key_cols) key.push_back(row[kc]);
  key.push_back(rid);
  return key;
}

/// A B+ tree entry's payload for `row`; the clustered tree's is the row.
std::span<const int64_t> EntryPayload(const TableIndex& ix,
                                      const PackedRow& row) {
  if (ix.def.is_primary) return row;
  thread_local std::vector<int64_t> payload;
  payload.clear();
  for (int pc : ix.payload_cols) payload.push_back(row[pc]);
  return payload;
}

// The appliers: one per operation and structure kind. The primary entry
// and every secondary go through them, for statements and recovery alike.

Status InsertEntry(TableIndex& ix, int64_t rid, const PackedRow& row,
                   QueryMetrics* m) {
  if (ix.csi) return ix.csi->Insert(row, rid, m);
  return ix.btree->Insert(EntryKey(ix, row, rid), EntryPayload(ix, row), m);
}

/// Statement-granular, so a columnstore delete scans once.
Status DeleteEntries(TableIndex& ix, std::span<const RowRef> rows,
                     QueryMetrics* m) {
  if (ix.csi) {
    std::vector<int64_t> rids;
    rids.reserve(rows.size());
    for (const auto& r : rows) rids.push_back(r.rid);
    return ix.csi->DeleteBatch(rids, m);
  }
  for (const auto& r : rows) {
    HD_RETURN_IF_ERROR(ix.btree->Delete(EntryKey(ix, r.row, r.rid), m));
  }
  return Status::OK();
}

/// news[i] replaces rows[i]. A B+ tree entry whose key columns keep their
/// values has its payload updated in place; any other update is a delete
/// followed by an insert — on a columnstore always (paper, Section 2).
Status UpdateEntries(TableIndex& ix, std::span<const RowRef> rows,
                     std::span<const PackedRow> news, QueryMetrics* m) {
  if (ix.csi) {
    HD_RETURN_IF_ERROR(DeleteEntries(ix, rows, m));
    for (size_t i = 0; i < rows.size(); ++i) {
      HD_RETURN_IF_ERROR(InsertEntry(ix, rows[i].rid, news[i], m));
    }
    return Status::OK();
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const RowRef& r = rows[i];
    const bool same_key =
        std::all_of(ix.def.key_cols.begin(), ix.def.key_cols.end(),
                    [&](int kc) { return r.row[kc] == news[i][kc]; });
    if (same_key) {
      HD_RETURN_IF_ERROR(ix.btree->UpdatePayload(
          EntryKey(ix, r.row, r.rid), EntryPayload(ix, news[i]), m));
    } else {
      HD_RETURN_IF_ERROR(DeleteEntries(ix, {&r, 1}, m));
      HD_RETURN_IF_ERROR(InsertEntry(ix, r.rid, news[i], m));
    }
  }
  return Status::OK();
}

}  // namespace

// ---------------- loading ----------------

void Table::BulkLoad(const std::vector<Row>& rows) {
  // Build string dictionaries sorted for order-preserving codes.
  for (int c = 0; c < schema_.num_columns(); ++c) {
    if (!dicts_[c]) continue;
    std::vector<std::string> vals;
    vals.reserve(rows.size());
    for (const auto& r : rows) {
      if (!r[c].is_null()) vals.push_back(r[c].str());
    }
    dicts_[c]->BuildSorted(std::move(vals));
  }
  std::vector<std::vector<int64_t>> cols(schema_.num_columns());
  for (auto& c : cols) c.reserve(rows.size());
  for (const auto& r : rows) {
    PackedRow p = PackRow(r);
    for (size_t c = 0; c < p.size(); ++c) cols[c].push_back(p[c]);
  }
  BulkLoadPacked(std::move(cols));
}

void Table::BulkLoadPacked(std::vector<std::vector<int64_t>> cols) {
  assert(static_cast<int>(cols.size()) == schema_.num_columns());
  std::vector<int64_t> rids(cols.empty() ? 0 : cols[0].size());
  std::iota(rids.begin(), rids.end(), 0);
  const auto n = static_cast<int64_t>(rids.size());
  LoadRows(std::move(cols), std::move(rids), n);
}

void Table::LoadRows(Columns cols, std::vector<int64_t> rids,
                     int64_t next_rid) {
  // Primary storage order: rid order for a heap, clustered-key order for a
  // B+ tree. A secondary columnstore keeps it, as when built from a scan.
  const bool heap = primary_kind_ == PrimaryKind::kHeap;
  if (primary_kind_ != PrimaryKind::kColumnStore) {
    Permute(SortedOrder(heap ? std::vector<int>{} : primary_keys_, cols, rids),
            &cols, &rids);
  }
  if (heap) {
    const int ncols = schema_.num_columns();
    heap_ = std::make_unique<HeapFile>(ncols, pool_);
    PackedRow row(ncols);
    for (size_t i = 0; i < rids.size(); ++i) {
      // Heap rids are physical positions: pad gaps (rows deleted before a
      // checkpoint) with tombstones.
      while (static_cast<int64_t>(heap_->num_rows()) < rids[i]) {
        heap_->AppendTombstone();
      }
      for (int c = 0; c < ncols; ++c) row[c] = cols[c][i];
      heap_->Append(row);
    }
  }
  BuildIndexes(0, std::move(cols), std::move(rids));
  next_rid_ = next_rid;
  Analyze();
}

void Table::BuildIndexes(size_t first, Columns cols,
                         std::vector<int64_t> rids) {
  const int ncols = schema_.num_columns();
  std::vector<TableIndex*> columnstores;
  for (size_t i = first; i < indexes_.size(); ++i) {
    TableIndex& ix = *indexes_[i];
    if (ix.def.is_columnstore()) {
      columnstores.push_back(&ix);
      continue;
    }
    ix.payload_cols = ix.def.included_cols;
    if (ix.def.is_primary) {
      ix.payload_cols.resize(ncols);
      std::iota(ix.payload_cols.begin(), ix.payload_cols.end(), 0);
    } else if (primary_kind_ == PrimaryKind::kBTree) {
      for (int pk : primary_keys_) {
        auto has = [pk](const std::vector<int>& v) {
          return std::find(v.begin(), v.end(), pk) != v.end();
        };
        if (!has(ix.payload_cols) && !has(ix.def.key_cols)) {
          ix.payload_cols.push_back(pk);
        }
      }
    }
    const int kw = static_cast<int>(ix.def.key_cols.size()) + 1;
    const int pw = static_cast<int>(ix.payload_cols.size());
    ix.btree = std::make_unique<BTree>(kw, pw, pool_);
    std::vector<int64_t> flat;
    flat.reserve(rids.size() * (kw + pw));
    for (uint32_t r : SortedOrder(ix.def.key_cols, cols, rids)) {
      for (int kc : ix.def.key_cols) flat.push_back(cols[kc][r]);
      flat.push_back(rids[r]);
      for (int pc : ix.payload_cols) flat.push_back(cols[pc][r]);
    }
    ix.btree->BulkLoad(flat);
  }
  for (size_t i = 0; i < columnstores.size(); ++i) {
    TableIndex& ix = *columnstores[i];
    CsiOptions copts;
    if (!ix.def.key_cols.empty()) copts.sort_col = ix.def.key_cols[0];
    ix.csi = std::make_unique<ColumnStoreIndex>(
        ix.def.is_primary ? ColumnStoreIndex::Kind::kPrimary
                          : ColumnStoreIndex::Kind::kSecondary,
        ncols, pool_, copts);
    // The last columnstore takes the columns. SetPrimary can put a primary
    // columnstore beside a secondary one; the first gets a copy.
    const bool last = i + 1 == columnstores.size();
    ix.csi->BulkLoad(last ? std::move(cols) : cols,
                     last ? std::move(rids) : rids);
  }
}

// ---------------- physical design ----------------

Status Table::SetPrimaryEntry(PrimaryKind kind, std::vector<int> key_cols) {
  if (kind == PrimaryKind::kBTree && key_cols.empty()) {
    return Status::InvalidArgument("clustered B+ tree needs key columns");
  }
  if (primary_kind_ != PrimaryKind::kHeap) indexes_.erase(indexes_.begin());
  heap_.reset();
  primary_kind_ = kind;
  primary_keys_ = std::move(key_cols);
  if (kind == PrimaryKind::kHeap) return Status::OK();
  auto ix = std::make_unique<TableIndex>();
  ix->def.is_primary = true;
  if (kind == PrimaryKind::kBTree) {
    ix->def.key_cols = primary_keys_;
  } else {
    ix->def.type = IndexDef::Type::kColumnStore;
  }
  indexes_.insert(indexes_.begin(), std::move(ix));
  return Status::OK();
}

Status Table::SetPrimary(PrimaryKind kind, std::vector<int> key_cols) {
  Columns cols;
  std::vector<int64_t> rids;
  Collect(&cols, &rids);
  HD_RETURN_IF_ERROR(SetPrimaryEntry(kind, std::move(key_cols)));
  // RowIds are reassigned in the order the old primary stored the rows.
  std::iota(rids.begin(), rids.end(), 0);
  const auto n = static_cast<int64_t>(rids.size());
  LoadRows(std::move(cols), std::move(rids), n);
  return Status::OK();
}

Status Table::AddIndex(IndexDef def) {
  if (FindSecondary(def.name) != nullptr) {
    return Status::InvalidArgument("index exists: " + def.name);
  }
  if (def.is_columnstore()) {
    if (any_csi() != nullptr) {
      return Status::NotSupported("only one columnstore per table");
    }
    if (!def.key_cols.empty() && def.key_cols[0] >= schema_.num_columns()) {
      return Status::InvalidArgument("sort column out of range");
    }
  }
  auto ix = std::make_unique<TableIndex>();
  ix->def = std::move(def);
  indexes_.push_back(std::move(ix));
  return Status::OK();
}

Status Table::CreateIndex(IndexDef def) {
  HD_RETURN_IF_ERROR(AddIndex(std::move(def)));
  Columns cols;
  std::vector<int64_t> rids;
  Collect(&cols, &rids);
  BuildIndexes(indexes_.size() - 1, std::move(cols), std::move(rids));
  return Status::OK();
}

Status Table::CreateSecondaryBTree(const std::string& name,
                                   std::vector<int> key_cols,
                                   std::vector<int> included_cols) {
  IndexDef def;
  def.name = name;
  def.key_cols = std::move(key_cols);
  def.included_cols = std::move(included_cols);
  return CreateIndex(std::move(def));
}

Status Table::CreateSecondaryColumnStore(const std::string& name,
                                         int sort_col) {
  IndexDef def;
  def.name = name;
  def.type = IndexDef::Type::kColumnStore;
  if (sort_col >= 0) def.key_cols = {sort_col};
  return CreateIndex(std::move(def));
}

Status Table::ApplyIndexDef(const IndexDef& def) {
  if (def.is_primary) {
    if (def.is_btree()) return SetPrimary(PrimaryKind::kBTree, def.key_cols);
    return SetPrimary(PrimaryKind::kColumnStore);
  }
  if (def.is_btree()) {
    return CreateSecondaryBTree(def.name, def.key_cols, def.included_cols);
  }
  return CreateSecondaryColumnStore(
      def.name, def.key_cols.empty() ? -1 : def.key_cols[0]);
}

Status Table::DropIndex(const std::string& name) {
  for (auto it = indexes_.begin(); it != indexes_.end(); ++it) {
    if (!(*it)->def.is_primary && (*it)->def.name == name) {
      indexes_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no such index: " + name);
}

void Table::DropAllSecondaries() {
  indexes_.resize(primary_kind_ == PrimaryKind::kHeap ? 0 : 1);
}

TableIndex* Table::FindSecondary(const std::string& name) const {
  for (const auto& ix : secondaries()) {
    if (ix->def.name == name) return ix.get();
  }
  return nullptr;
}

TableIndex* Table::FindIndex(const std::string& name) const {
  if (!name.empty()) return FindSecondary(name);
  return primary_kind_ == PrimaryKind::kHeap ? nullptr : indexes_[0].get();
}

ColumnStoreIndex* Table::any_csi() const {
  for (const auto& ix : indexes_) {
    if (ix->csi) return ix->csi.get();
  }
  return nullptr;
}

bool Table::has_secondary_csi() const {
  for (const auto& ix : secondaries()) {
    if (ix->csi) return true;
  }
  return false;
}

// ---------------- WAL integration ----------------

WalRow Table::ToWalRow(const PackedRow& row) const {
  WalRow out;
  out.reserve(row.size());
  for (size_t c = 0; c < row.size(); ++c) {
    if (row[c] == INT64_MIN) {
      out.push_back(WalValue::Null());
    } else if (dicts_[c]) {
      out.push_back(WalValue::Str(dicts_[c]->At(row[c])));
    } else {
      out.push_back(WalValue::Packed(row[c]));
    }
  }
  return out;
}

PackedRow Table::FromWalRow(const WalRow& row) {
  PackedRow out(row.size());
  for (size_t c = 0; c < row.size(); ++c) {
    switch (row[c].tag) {
      case WalValue::Tag::kNull:
        out[c] = INT64_MIN;
        break;
      case WalValue::Tag::kString:
        out[c] = dicts_[c]->GetOrAdd(row[c].str);
        break;
      case WalValue::Tag::kPacked:
        out[c] = row[c].packed;
        break;
    }
  }
  return out;
}

void Table::StampLsn(std::span<const RowRef> rows, uint64_t lsn) {
  if (lsn == 0) return;
  if (heap_) {
    for (const auto& r : rows) {
      heap_->StampPageLsn(static_cast<uint64_t>(r.rid), lsn);
    }
  }
  for (auto& ix : indexes_) {
    if (ix->btree) {
      ix->btree->set_recovery_lsn(lsn);
    } else {
      ix->csi->set_recovery_lsn(lsn);
    }
  }
  if (lsn > applied_lsn_) applied_lsn_ = lsn;
}

Status Table::ReorganizeColumnstores() {
  std::unique_lock<FairSharedMutex> latch(phys_latch_);
  for (const auto& ix : indexes_) {
    if (!ix->csi) continue;
    // Log the logical "reorg applied" mark BEFORE the tuple mover runs:
    // replay then reproduces the post-reorg layout; a crash before the
    // record is durable replays to the pre-reorg image. Either way the
    // logical contents are identical — never a torn mix. txn 0 =
    // self-committed (redo applies it unconditionally). An empty name
    // means the primary columnstore.
    uint64_t lsn = 0;
    if (wal_ != nullptr) {
      WalRecord rec;
      rec.type = WalRecordType::kCsiReorg;
      rec.txn = 0;
      rec.table_id = table_id_;
      rec.aux = ix->def.name;
      HD_RETURN_IF_ERROR(wal_->Append(&rec, &lsn));
    }
    HD_RETURN_IF_ERROR(ix->csi->Reorganize());
    if (lsn != 0) {
      ix->csi->set_recovery_lsn(lsn);
      if (lsn > applied_lsn_) applied_lsn_ = lsn;
    }
  }
  return Status::OK();
}

// ---------------- DML ----------------

template <typename Apply>
Status Table::RunStatement(WalRecordType type, uint64_t txn,
                           std::span<const RowRef> rows,
                           std::span<const PackedRow> news, Apply apply) {
  const bool self_commit = wal_ != nullptr && txn == 0;
  if (self_commit) txn = wal_->AllocTxnId();
  // WAL rule: log the whole statement before touching any structure, so a
  // failed append fails the statement with nothing applied.
  Status s;
  uint64_t lsn = 0;
  for (size_t i = 0; wal_ != nullptr && s.ok() && i < rows.size(); ++i) {
    WalRecord rec;
    rec.type = type;
    rec.txn = txn;
    rec.table_id = table_id_;
    rec.rid = rows[i].rid;
    if (type != WalRecordType::kInsert) rec.old_row = ToWalRow(rows[i].row);
    if (type != WalRecordType::kDelete) rec.new_row = ToWalRow(news[i]);
    s = wal_->Append(&rec, &lsn);
  }
  if (s.ok()) {
    s = apply(txn);
    // Stamp even after a partial failure: some structures did change, and
    // over-marking dirtiness is always safe.
    StampLsn(rows, lsn);
  }
  if (self_commit) {
    if (s.ok()) return wal_->Commit(txn);
    (void)wal_->Abort(txn);
  }
  return s;
}

Status Table::ApplyInsert(int64_t rid, const PackedRow& row, QueryMetrics* m,
                          bool* held) {
  if (heap_) {
    while (static_cast<int64_t>(heap_->num_rows()) < rid) {
      heap_->AppendTombstone();
    }
    if (static_cast<int64_t>(heap_->num_rows()) > rid) {
      // The slot already exists — legal only as undo of a loser DELETE,
      // where the checkpoint left a tombstone at this rid.
      HD_RETURN_IF_ERROR(heap_->Resurrect(rid, row));
    } else {
      heap_->Append(row);
    }
    *held = true;
  }
  for (auto& ix : indexes_) {
    HD_RETURN_IF_ERROR(InsertEntry(*ix, rid, row, m));
    *held = true;
  }
  return Status::OK();
}

Status Table::InsertPacked(const PackedRow& row, QueryMetrics* m,
                           int64_t* rid_out, uint64_t wal_txn) {
  // The rid is taken only once the record is logged: a failed append
  // (wal.append failpoint) must leave no rid gap for a row that never
  // existed.
  const RowRef ref{next_rid_, {}};
  HD_RETURN_IF_ERROR(RunStatement(
      WalRecordType::kInsert, wal_txn, {&ref, 1}, {&row, 1},
      [&](uint64_t txn) {
        next_rid_ = ref.rid + 1;
        bool held = false;
        Status s = ApplyInsert(ref.rid, row, m, &held);
        if (!s.ok() && held) {
          // Compensate so the statement is all-or-nothing: remove the
          // copies already made (best-effort — a second injected failure
          // here leaves an orphan row, which only over-counts, never
          // corrupts). next_rid_ is NOT rolled back: heap RowIds must stay
          // dense with the heap's physical slots, and gaps are harmless
          // for the other primaries. The compensation delete is logged
          // under the SAME wal txn, so replay reproduces the absence
          // whether the txn commits or not.
          (void)DeleteRows({RowRef{ref.rid, row}}, nullptr, txn);
        }
        return s;
      }));
  if (rid_out != nullptr) *rid_out = ref.rid;
  return Status::OK();
}

Status Table::DeleteRows(const std::vector<RowRef>& rows, QueryMetrics* m,
                         uint64_t wal_txn) {
  if (rows.empty()) return Status::OK();
  return RunStatement(
      WalRecordType::kDelete, wal_txn, rows, {}, [&](uint64_t) -> Status {
        if (heap_) {
          for (const auto& r : rows) HD_RETURN_IF_ERROR(heap_->Delete(r.rid, m));
        }
        for (auto& ix : indexes_) {
          HD_RETURN_IF_ERROR(DeleteEntries(*ix, rows, m));
        }
        return Status::OK();
      });
}

Status Table::UpdateRows(const std::vector<RowRef>& rows,
                         const std::vector<PackedRow>& news, QueryMetrics* m,
                         uint64_t wal_txn) {
  assert(rows.size() == news.size());
  if (rows.empty()) return Status::OK();
  return RunStatement(
      WalRecordType::kUpdate, wal_txn, rows, news, [&](uint64_t) -> Status {
        if (heap_) {
          for (size_t i = 0; i < rows.size(); ++i) {
            HD_RETURN_IF_ERROR(heap_->Update(rows[i].rid, news[i], m));
          }
        }
        for (auto& ix : indexes_) {
          HD_RETURN_IF_ERROR(UpdateEntries(*ix, rows, news, m));
        }
        return Status::OK();
      });
}

Status Table::FetchRow(int64_t rid, std::span<const int64_t> pk_hint,
                       PackedRow* out, QueryMetrics* m) const {
  const int ncols = schema_.num_columns();
  out->resize(ncols);
  switch (primary_kind_) {
    case PrimaryKind::kHeap:
      return heap_->Fetch(rid, out->data(), m);
    case PrimaryKind::kBTree: {
      if (static_cast<int>(pk_hint.size()) !=
          static_cast<int>(primary_keys_.size())) {
        return Status::InvalidArgument("pk hint width mismatch");
      }
      std::vector<int64_t> key(pk_hint.begin(), pk_hint.end());
      key.push_back(rid);
      return primary_btree()->SeekEqual(key, out->data(), m);
    }
    case PrimaryKind::kColumnStore:
      return primary_csi()->FetchRow(rid, out->data(), m);
  }
  return Status::Internal("unreachable");
}

// ---------------- whole-table access ----------------

void Table::ScanAll(const std::function<bool(int64_t, const int64_t*)>& fn,
                    QueryMetrics* m) const {
  // ScanAll feeds maintenance paths (stats sampling, index rebuild) that
  // have no failure channel; injected I/O faults are ignored here — they
  // target query/DML boundaries, not offline rebuilds.
  switch (primary_kind_) {
    case PrimaryKind::kHeap:
      (void)heap_->Scan([&](uint64_t rid, const int64_t* row) {
        return fn(static_cast<int64_t>(rid), row);
      }, m);
      break;
    case PrimaryKind::kBTree: {
      const size_t kw = primary_keys_.size() + 1;
      (void)primary_btree()->Scan(
          Bound::Unbounded(), Bound::Unbounded(),
          [&](const int64_t* key, const int64_t* payload) {
            return fn(key[kw - 1], payload);
          },
          m);
      break;
    }
    case PrimaryKind::kColumnStore: {
      // Callers hold the table latch (or run single-threaded); the view
      // reads every column.
      Result<CsiViewPtr> view = primary_csi()->Pin(m);
      if (view.ok()) (void)(*view)->ForEachRow(fn, m);
      break;
    }
  }
}

void Table::Collect(std::vector<std::vector<int64_t>>* cols,
                    std::vector<int64_t>* rids) const {
  const int ncols = schema_.num_columns();
  const uint64_t n = num_rows();
  cols->assign(ncols, {});
  for (auto& c : *cols) c.reserve(n);
  rids->clear();
  rids->reserve(n);
  ScanAll(
      [&](int64_t rid, const int64_t* row) {
        for (int c = 0; c < ncols; ++c) (*cols)[c].push_back(row[c]);
        rids->push_back(rid);
        return true;
      },
      nullptr);
}

void Table::SampleBlocks(double ratio, uint64_t seed, int block_rows,
                         std::vector<std::vector<int64_t>>* cols) const {
  const int ncols = schema_.num_columns();
  cols->assign(ncols, {});
  if (ratio <= 0) return;
  Rng rng(seed);
  bool take = rng.Flip(ratio);
  int in_block = 0;
  ScanAll(
      [&](int64_t, const int64_t* row) {
        if (take) {
          for (int c = 0; c < ncols; ++c) (*cols)[c].push_back(row[c]);
        }
        if (++in_block >= block_rows) {
          in_block = 0;
          take = rng.Flip(ratio);
        }
        return true;
      },
      nullptr);
}

// ---------------- stats ----------------

void Table::Analyze() {
  const uint64_t n = num_rows();
  stats_.row_count = n;
  stats_.columns.assign(schema_.num_columns(), {});
  if (n == 0) return;
  // Sample about 1M rows via blocks; small tables use everything.
  constexpr uint64_t kTarget = 1u << 20;
  const double ratio = n <= kTarget ? 1.0 : static_cast<double>(kTarget) / n;
  std::vector<std::vector<int64_t>> cols;
  SampleBlocks(ratio, /*seed=*/7, /*block_rows=*/1024, &cols);
  for (int c = 0; c < schema_.num_columns(); ++c) {
    stats_.columns[c].Build(std::move(cols[c]), n);
  }
}

uint64_t Table::num_rows() const {
  if (heap_) return heap_->live_rows();
  const TableIndex& p = *indexes_[0];
  return p.btree ? p.btree->num_entries() : p.csi->num_rows();
}

uint64_t Table::primary_size_bytes() const {
  return heap_ ? heap_->size_bytes() : indexes_[0]->size_bytes();
}

// ---------------- recovery appliers (catalog/recovery.cc) ----------------

void Table::RecoverRestoreDict(int col, std::vector<std::string> strings,
                               bool sorted) {
  if (dicts_[col]) dicts_[col]->Restore(std::move(strings), sorted);
}

Status Table::RecoverLoad(PrimaryKind kind, std::vector<int> primary_keys,
                          const std::vector<IndexDef>& secondaries,
                          std::vector<std::vector<int64_t>> cols,
                          std::vector<int64_t> rids, int64_t next_rid) {
  HD_RETURN_IF_ERROR(SetPrimaryEntry(kind, std::move(primary_keys)));
  for (const IndexDef& def : secondaries) HD_RETURN_IF_ERROR(AddIndex(def));
  LoadRows(std::move(cols), std::move(rids), next_rid);
  return Status::OK();
}

Status Table::RecoverInsert(int64_t rid, const PackedRow& row) {
  bool held = false;
  HD_RETURN_IF_ERROR(ApplyInsert(rid, row, nullptr, &held));
  next_rid_ = std::max(next_rid_, rid + 1);
  return Status::OK();
}

Status Table::RecoverUpdate(int64_t rid, const PackedRow& old_row,
                            const PackedRow& new_row) {
  return UpdateRows({RowRef{rid, old_row}}, {new_row}, nullptr);
}

Status Table::RecoverDelete(int64_t rid, const PackedRow& old_row) {
  return DeleteRows({RowRef{rid, old_row}}, nullptr);
}

}  // namespace hd
