#include "catalog/table.h"

#include <algorithm>
#include <cassert>

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
  const size_t n = cols.empty() ? 0 : cols[0].size();
  const int ncols = schema_.num_columns();

  switch (primary_kind_) {
    case PrimaryKind::kHeap: {
      heap_ = std::make_unique<HeapFile>(ncols, pool_);
      PackedRow row(ncols);
      for (size_t i = 0; i < n; ++i) {
        for (int c = 0; c < ncols; ++c) row[c] = cols[c][i];
        heap_->Append(row);
      }
      next_rid_ = static_cast<int64_t>(n);
      break;
    }
    case PrimaryKind::kBTree: {
      const int kw = primary_btree_key_width();
      primary_btree_ = std::make_unique<BTree>(kw, ncols, pool_);
      // Sort by key then bulk load; rids follow the original row order.
      std::vector<uint32_t> perm(n);
      for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
      std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
        for (int kc : primary_keys_) {
          if (cols[kc][a] != cols[kc][b]) return cols[kc][a] < cols[kc][b];
        }
        return a < b;
      });
      std::vector<int64_t> flat;
      flat.reserve(n * (kw + ncols));
      for (uint32_t src : perm) {
        for (int kc : primary_keys_) flat.push_back(cols[kc][src]);
        flat.push_back(static_cast<int64_t>(src));  // rid = original order
        for (int c = 0; c < ncols; ++c) flat.push_back(cols[c][src]);
      }
      primary_btree_->BulkLoad(flat);
      next_rid_ = static_cast<int64_t>(n);
      break;
    }
    case PrimaryKind::kColumnStore: {
      primary_csi_ = std::make_unique<ColumnStoreIndex>(
          ColumnStoreIndex::Kind::kPrimary, ncols, pool_);
      std::vector<int64_t> locs(n);
      for (size_t i = 0; i < n; ++i) locs[i] = static_cast<int64_t>(i);
      primary_csi_->BulkLoad(std::move(cols), std::move(locs));
      next_rid_ = static_cast<int64_t>(n);
      break;
    }
  }
  for (auto& si : secondaries_) RebuildSecondary(si.get());
  Analyze();
}

// ---------------- physical design ----------------

Status Table::SetPrimary(PrimaryKind kind, std::vector<int> key_cols) {
  if (kind == PrimaryKind::kBTree && key_cols.empty()) {
    return Status::InvalidArgument("clustered B+ tree needs key columns");
  }
  std::vector<PackedRow> rows;
  std::vector<int64_t> rids;
  CollectAll(&rows, &rids);

  primary_kind_ = kind;
  primary_keys_ = std::move(key_cols);
  heap_.reset();
  primary_btree_.reset();
  primary_csi_.reset();

  const int ncols = schema_.num_columns();
  std::vector<std::vector<int64_t>> cols(ncols);
  for (auto& c : cols) c.reserve(rows.size());
  for (const auto& r : rows) {
    for (int c = 0; c < ncols; ++c) cols[c].push_back(r[c]);
  }
  if (kind == PrimaryKind::kHeap) {
    heap_ = std::make_unique<HeapFile>(ncols, pool_);
  }
  BulkLoadPacked(std::move(cols));
  return Status::OK();
}

std::vector<int> Table::ComputePayloadCols(const IndexDef& def) const {
  std::vector<int> payload = def.included_cols;
  if (primary_kind_ == PrimaryKind::kBTree) {
    for (int pk : primary_keys_) {
      if (std::find(payload.begin(), payload.end(), pk) == payload.end() &&
          std::find(def.key_cols.begin(), def.key_cols.end(), pk) ==
              def.key_cols.end()) {
        payload.push_back(pk);
      }
    }
  }
  return payload;
}

Status Table::CreateSecondaryBTree(const std::string& name,
                                   std::vector<int> key_cols,
                                   std::vector<int> included_cols) {
  if (FindSecondary(name) != nullptr) {
    return Status::InvalidArgument("index exists: " + name);
  }
  auto si = std::make_unique<SecondaryIndex>();
  si->def.name = name;
  si->def.type = IndexDef::Type::kBTree;
  si->def.key_cols = std::move(key_cols);
  si->def.included_cols = std::move(included_cols);
  si->payload_cols = ComputePayloadCols(si->def);
  RebuildSecondary(si.get());
  secondaries_.push_back(std::move(si));
  return Status::OK();
}

Status Table::CreateSecondaryColumnStore(const std::string& name,
                                         int sort_col) {
  if (FindSecondary(name) != nullptr) {
    return Status::InvalidArgument("index exists: " + name);
  }
  if (any_csi() != nullptr) {
    return Status::NotSupported("only one columnstore per table");
  }
  if (sort_col >= schema_.num_columns()) {
    return Status::InvalidArgument("sort column out of range");
  }
  auto si = std::make_unique<SecondaryIndex>();
  si->def.name = name;
  si->def.type = IndexDef::Type::kColumnStore;
  if (sort_col >= 0) si->def.key_cols = {sort_col};
  RebuildSecondary(si.get());
  secondaries_.push_back(std::move(si));
  return Status::OK();
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
  for (auto it = secondaries_.begin(); it != secondaries_.end(); ++it) {
    if ((*it)->def.name == name) {
      secondaries_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no such index: " + name);
}

void Table::DropAllSecondaries() { secondaries_.clear(); }

SecondaryIndex* Table::FindSecondary(const std::string& name) const {
  for (const auto& si : secondaries_) {
    if (si->def.name == name) return si.get();
  }
  return nullptr;
}

ColumnStoreIndex* Table::any_csi() const {
  if (primary_csi_) return primary_csi_.get();
  for (const auto& si : secondaries_) {
    if (si->csi) return si->csi.get();
  }
  return nullptr;
}

bool Table::has_secondary_csi() const {
  for (const auto& si : secondaries_) {
    if (si->csi) return true;
  }
  return false;
}

void Table::RebuildSecondary(SecondaryIndex* si) {
  si->payload_cols = si->def.is_btree() ? ComputePayloadCols(si->def)
                                        : std::vector<int>{};
  if (si->def.is_btree()) {
    const int kw = static_cast<int>(si->def.key_cols.size()) + 1;
    const int pw = static_cast<int>(si->payload_cols.size());
    si->btree = std::make_unique<BTree>(kw, pw, pool_);
    // Collect (key, rid, payload) tuples, sort, bulk load.
    struct Ent {
      std::vector<int64_t> kp;
    };
    std::vector<std::vector<int64_t>> ents;
    ScanAll(
        [&](int64_t rid, const int64_t* row) {
          std::vector<int64_t> e;
          e.reserve(kw + pw);
          for (int kc : si->def.key_cols) e.push_back(row[kc]);
          e.push_back(rid);
          for (int pc : si->payload_cols) e.push_back(row[pc]);
          ents.push_back(std::move(e));
          return true;
        },
        nullptr);
    std::sort(ents.begin(), ents.end(),
              [kw](const std::vector<int64_t>& a, const std::vector<int64_t>& b) {
                return ComparePacked(a.data(), b.data(), kw) < 0;
              });
    std::vector<int64_t> flat;
    flat.reserve(ents.size() * (kw + pw));
    for (auto& e : ents) flat.insert(flat.end(), e.begin(), e.end());
    si->btree->BulkLoad(flat);
  } else {
    const int ncols = schema_.num_columns();
    CsiOptions copts;
    if (!si->def.key_cols.empty()) copts.sort_col = si->def.key_cols[0];
    si->csi = std::make_unique<ColumnStoreIndex>(
        ColumnStoreIndex::Kind::kSecondary, ncols, pool_, copts);
    std::vector<std::vector<int64_t>> cols(ncols);
    std::vector<int64_t> locs;
    ScanAll(
        [&](int64_t rid, const int64_t* row) {
          for (int c = 0; c < ncols; ++c) cols[c].push_back(row[c]);
          locs.push_back(rid);
          return true;
        },
        nullptr);
    si->csi->BulkLoad(std::move(cols), std::move(locs));
  }
}

// ---------------- DML ----------------

std::vector<int64_t> Table::MakeBTreeKey(const std::vector<int>& key_cols,
                                         const PackedRow& row,
                                         int64_t rid) const {
  std::vector<int64_t> k;
  k.reserve(key_cols.size() + 1);
  for (int kc : key_cols) k.push_back(row[kc]);
  k.push_back(rid);
  return k;
}

Status Table::InsertIntoSecondaries(const PackedRow& row, int64_t rid,
                                    QueryMetrics* m) {
  for (auto& si : secondaries_) {
    if (si->btree) {
      std::vector<int64_t> key = MakeBTreeKey(si->def.key_cols, row, rid);
      std::vector<int64_t> payload;
      payload.reserve(si->payload_cols.size());
      for (int pc : si->payload_cols) payload.push_back(row[pc]);
      HD_RETURN_IF_ERROR(si->btree->Insert(key, payload, m));
    } else {
      HD_RETURN_IF_ERROR(si->csi->Insert(row, rid, m));
    }
  }
  return Status::OK();
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

Status Table::LogDml(WalRecordType type, uint64_t txn, int64_t rid,
                     const PackedRow* old_row, const PackedRow* new_row,
                     uint64_t* lsn_out) {
  WalRecord rec;
  rec.type = type;
  rec.txn = txn;
  rec.table_id = table_id_;
  rec.rid = rid;
  if (old_row != nullptr) rec.old_row = ToWalRow(*old_row);
  if (new_row != nullptr) rec.new_row = ToWalRow(*new_row);
  return wal_->Append(&rec, lsn_out);
}

void Table::StampLsn(int64_t rid, uint64_t lsn) {
  if (lsn == 0) return;
  switch (primary_kind_) {
    case PrimaryKind::kHeap:
      heap_->StampPageLsn(static_cast<uint64_t>(rid), lsn);
      break;
    case PrimaryKind::kBTree:
      primary_btree_->set_recovery_lsn(lsn);
      break;
    case PrimaryKind::kColumnStore:
      primary_csi_->set_recovery_lsn(lsn);
      break;
  }
  for (auto& si : secondaries_) {
    if (si->btree) {
      si->btree->set_recovery_lsn(lsn);
    } else {
      si->csi->set_recovery_lsn(lsn);
    }
  }
  if (lsn > applied_lsn_) applied_lsn_ = lsn;
}

Status Table::ReorganizeColumnstores() {
  std::unique_lock<FairSharedMutex> latch(phys_latch_);
  auto run = [&](ColumnStoreIndex* csi, const std::string& name) -> Status {
    if (csi == nullptr) return Status::OK();
    // Log the logical "reorg applied" mark BEFORE the tuple mover runs:
    // replay then reproduces the post-reorg layout; a crash before the
    // record is durable replays to the pre-reorg image. Either way the
    // logical contents are identical — never a torn mix. txn 0 =
    // self-committed (redo applies it unconditionally).
    uint64_t lsn = 0;
    if (wal_ != nullptr) {
      WalRecord rec;
      rec.type = WalRecordType::kCsiReorg;
      rec.txn = 0;
      rec.table_id = table_id_;
      rec.aux = name;
      HD_RETURN_IF_ERROR(wal_->Append(&rec, &lsn));
    }
    HD_RETURN_IF_ERROR(csi->Reorganize());
    if (lsn != 0) {
      csi->set_recovery_lsn(lsn);
      if (lsn > applied_lsn_) applied_lsn_ = lsn;
    }
    return Status::OK();
  };
  HD_RETURN_IF_ERROR(run(primary_csi_.get(), ""));
  for (auto& si : secondaries_) {
    if (si->csi) HD_RETURN_IF_ERROR(run(si->csi.get(), si->def.name));
  }
  return Status::OK();
}

Status Table::InsertPacked(const PackedRow& row, QueryMetrics* m,
                           int64_t* rid_out, uint64_t wal_txn) {
  const bool self_commit = wal_ != nullptr && wal_txn == 0;
  if (self_commit) wal_txn = wal_->AllocTxnId();
  // Log before allocating the rid for real: a failed append (wal.append
  // failpoint) must leave no rid gap for a row that never existed.
  const int64_t rid = next_rid_;
  uint64_t lsn = 0;
  if (wal_ != nullptr) {
    Status ls = LogDml(WalRecordType::kInsert, wal_txn, rid, nullptr, &row,
                       &lsn);
    if (!ls.ok()) {
      if (self_commit) (void)wal_->Abort(wal_txn);
      return ls;
    }
  }
  next_rid_ = rid + 1;
  bool in_primary = false;
  Status apply;
  switch (primary_kind_) {
    case PrimaryKind::kHeap: {
      uint64_t hrid = heap_->Append(row);
      assert(static_cast<int64_t>(hrid) == rid);
      (void)hrid;
      in_primary = true;
      break;
    }
    case PrimaryKind::kBTree: {
      std::vector<int64_t> key = MakeBTreeKey(primary_keys_, row, rid);
      apply = primary_btree_->Insert(key, row, m);
      in_primary = apply.ok();
      break;
    }
    case PrimaryKind::kColumnStore:
      apply = primary_csi_->Insert(row, rid, m);
      in_primary = apply.ok();
      break;
  }
  if (apply.ok()) apply = InsertIntoSecondaries(row, rid, m);
  if (!apply.ok()) {
    if (in_primary) {
      // Compensate so the statement is all-or-nothing: remove the primary
      // copy (best-effort — a second injected failure here leaves an
      // orphan primary row, which only over-counts, never corrupts).
      // next_rid_ is NOT rolled back: heap RowIds must stay dense with the
      // heap's physical slots, and gaps are harmless for the other
      // primaries. The compensation delete is logged under the SAME wal
      // txn, so replay reproduces the absence whether the txn commits or
      // not.
      RowRef ref;
      ref.rid = rid;
      ref.row = row;
      (void)DeleteRows({ref}, nullptr, wal_txn);
    }
    if (self_commit) (void)wal_->Abort(wal_txn);
    return apply;
  }
  StampLsn(rid, lsn);
  if (rid_out != nullptr) *rid_out = rid;
  if (self_commit) {
    HD_RETURN_IF_ERROR(wal_->Commit(wal_txn));
  }
  return Status::OK();
}

Status Table::DeleteRows(const std::vector<RowRef>& rows, QueryMetrics* m,
                         uint64_t wal_txn) {
  if (rows.empty()) return Status::OK();
  const bool self_commit = wal_ != nullptr && wal_txn == 0;
  if (self_commit) wal_txn = wal_->AllocTxnId();
  // WAL rule: log the whole batch before touching any structure, so a
  // failed append fails the statement with nothing applied.
  uint64_t last_lsn = 0;
  if (wal_ != nullptr) {
    for (const auto& r : rows) {
      Status ls = LogDml(WalRecordType::kDelete, wal_txn, r.rid, &r.row,
                         nullptr, &last_lsn);
      if (!ls.ok()) {
        if (self_commit) (void)wal_->Abort(wal_txn);
        return ls;
      }
    }
  }
  std::vector<int64_t> rids;
  rids.reserve(rows.size());
  for (const auto& r : rows) rids.push_back(r.rid);

  Status apply = [&]() -> Status {
    switch (primary_kind_) {
      case PrimaryKind::kHeap:
        for (const auto& r : rows) {
          HD_RETURN_IF_ERROR(heap_->Delete(r.rid, m));
        }
        break;
      case PrimaryKind::kBTree:
        for (const auto& r : rows) {
          std::vector<int64_t> key = MakeBTreeKey(primary_keys_, r.row, r.rid);
          HD_RETURN_IF_ERROR(primary_btree_->Delete(key, m));
        }
        break;
      case PrimaryKind::kColumnStore:
        HD_RETURN_IF_ERROR(primary_csi_->DeleteBatch(rids, m));
        break;
    }
    for (auto& si : secondaries_) {
      if (si->btree) {
        for (const auto& r : rows) {
          std::vector<int64_t> key =
              MakeBTreeKey(si->def.key_cols, r.row, r.rid);
          HD_RETURN_IF_ERROR(si->btree->Delete(key, m));
        }
      } else {
        HD_RETURN_IF_ERROR(si->csi->DeleteBatch(rids, m));
      }
    }
    return Status::OK();
  }();
  // Conservative: stamp even on a partial failure — some structures did
  // change, and over-marking dirtiness is always safe.
  if (last_lsn != 0) {
    for (const auto& r : rows) StampLsn(r.rid, last_lsn);
  }
  if (!apply.ok()) {
    if (self_commit) (void)wal_->Abort(wal_txn);
    return apply;
  }
  if (self_commit) {
    HD_RETURN_IF_ERROR(wal_->Commit(wal_txn));
  }
  return Status::OK();
}

Status Table::UpdateRows(const std::vector<RowRef>& rows,
                         const std::vector<PackedRow>& news, QueryMetrics* m,
                         uint64_t wal_txn) {
  assert(rows.size() == news.size());
  if (rows.empty()) return Status::OK();
  const bool self_commit = wal_ != nullptr && wal_txn == 0;
  if (self_commit) wal_txn = wal_->AllocTxnId();
  uint64_t last_lsn = 0;
  if (wal_ != nullptr) {
    for (size_t i = 0; i < rows.size(); ++i) {
      Status ls = LogDml(WalRecordType::kUpdate, wal_txn, rows[i].rid,
                         &rows[i].row, &news[i], &last_lsn);
      if (!ls.ok()) {
        if (self_commit) (void)wal_->Abort(wal_txn);
        return ls;
      }
    }
  }

  auto keys_changed = [&](const std::vector<int>& key_cols, size_t i) {
    for (int kc : key_cols) {
      if (rows[i].row[kc] != news[i][kc]) return true;
    }
    return false;
  };

  Status apply = [&]() -> Status {
  switch (primary_kind_) {
    case PrimaryKind::kHeap:
      for (size_t i = 0; i < rows.size(); ++i) {
        HD_RETURN_IF_ERROR(heap_->Update(rows[i].rid, news[i], m));
      }
      break;
    case PrimaryKind::kBTree:
      for (size_t i = 0; i < rows.size(); ++i) {
        std::vector<int64_t> old_key =
            MakeBTreeKey(primary_keys_, rows[i].row, rows[i].rid);
        if (!keys_changed(primary_keys_, i)) {
          HD_RETURN_IF_ERROR(primary_btree_->UpdatePayload(old_key, news[i], m));
        } else {
          HD_RETURN_IF_ERROR(primary_btree_->Delete(old_key, m));
          std::vector<int64_t> new_key =
              MakeBTreeKey(primary_keys_, news[i], rows[i].rid);
          HD_RETURN_IF_ERROR(primary_btree_->Insert(new_key, news[i], m));
        }
      }
      break;
    case PrimaryKind::kColumnStore: {
      // Paper, Section 2: a point update on a columnstore is a delete
      // followed by an insert.
      std::vector<int64_t> rids;
      for (const auto& r : rows) rids.push_back(r.rid);
      HD_RETURN_IF_ERROR(primary_csi_->DeleteBatch(rids, m));
      for (size_t i = 0; i < rows.size(); ++i) {
        HD_RETURN_IF_ERROR(primary_csi_->Insert(news[i], rows[i].rid, m));
      }
      break;
    }
  }

  for (auto& si : secondaries_) {
    if (si->btree) {
      for (size_t i = 0; i < rows.size(); ++i) {
        std::vector<int64_t> old_key =
            MakeBTreeKey(si->def.key_cols, rows[i].row, rows[i].rid);
        std::vector<int64_t> payload;
        payload.reserve(si->payload_cols.size());
        for (int pc : si->payload_cols) payload.push_back(news[i][pc]);
        if (!keys_changed(si->def.key_cols, i)) {
          HD_RETURN_IF_ERROR(si->btree->UpdatePayload(old_key, payload, m));
        } else {
          HD_RETURN_IF_ERROR(si->btree->Delete(old_key, m));
          std::vector<int64_t> new_key =
              MakeBTreeKey(si->def.key_cols, news[i], rows[i].rid);
          HD_RETURN_IF_ERROR(si->btree->Insert(new_key, payload, m));
        }
      }
    } else {
      std::vector<int64_t> rids;
      for (const auto& r : rows) rids.push_back(r.rid);
      HD_RETURN_IF_ERROR(si->csi->DeleteBatch(rids, m));
      for (size_t i = 0; i < rows.size(); ++i) {
        HD_RETURN_IF_ERROR(si->csi->Insert(news[i], rows[i].rid, m));
      }
    }
  }
  return Status::OK();
  }();
  if (last_lsn != 0) {
    for (const auto& r : rows) StampLsn(r.rid, last_lsn);
  }
  if (!apply.ok()) {
    if (self_commit) (void)wal_->Abort(wal_txn);
    return apply;
  }
  if (self_commit) {
    HD_RETURN_IF_ERROR(wal_->Commit(wal_txn));
  }
  return Status::OK();
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
      return primary_btree_->SeekEqual(key, out->data(), m);
    }
    case PrimaryKind::kColumnStore:
      return primary_csi_->FetchRow(rid, out->data(), m);
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
      const int kw = primary_btree_key_width();
      (void)primary_btree_->Scan(Bound::Unbounded(), Bound::Unbounded(),
                                 [&](const int64_t* key, const int64_t* payload) {
                                   return fn(key[kw - 1], payload);
                                 },
                                 m);
      break;
    }
    case PrimaryKind::kColumnStore: {
      // Callers hold the table latch (or run single-threaded); the view
      // reads every column.
      Result<CsiViewPtr> view = primary_csi_->Pin(m);
      if (view.ok()) (void)(*view)->ForEachRow(fn, m);
      break;
    }
  }
}

void Table::CollectAll(std::vector<PackedRow>* rows,
                       std::vector<int64_t>* rids) const {
  const int ncols = schema_.num_columns();
  ScanAll(
      [&](int64_t rid, const int64_t* row) {
        rows->emplace_back(row, row + ncols);
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
  switch (primary_kind_) {
    case PrimaryKind::kHeap: return heap_->live_rows();
    case PrimaryKind::kBTree: return primary_btree_->num_entries();
    case PrimaryKind::kColumnStore: return primary_csi_->num_rows();
  }
  return 0;
}

// ---------------- recovery appliers (catalog/recovery.cc) ----------------

void Table::RecoverRestoreDict(int col, std::vector<std::string> strings,
                               bool sorted) {
  if (dicts_[col]) dicts_[col]->Restore(std::move(strings), sorted);
}

void Table::RecoverLoad(std::vector<std::vector<int64_t>> cols,
                        std::vector<int64_t> rids, int64_t next_rid) {
  const size_t n = rids.size();
  const int ncols = schema_.num_columns();
  switch (primary_kind_) {
    case PrimaryKind::kHeap: {
      heap_ = std::make_unique<HeapFile>(ncols, pool_);
      // Heap rids are physical positions: install in rid order, padding
      // gaps (rows deleted before the checkpoint) with tombstones.
      std::vector<size_t> order(n);
      for (size_t i = 0; i < n; ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](size_t a, size_t b) { return rids[a] < rids[b]; });
      PackedRow row(ncols);
      for (size_t idx : order) {
        while (static_cast<int64_t>(heap_->num_rows()) < rids[idx]) {
          heap_->AppendTombstone();
        }
        for (int c = 0; c < ncols; ++c) row[c] = cols[c][idx];
        heap_->Append(row);
      }
      break;
    }
    case PrimaryKind::kBTree: {
      const int kw = primary_btree_key_width();
      primary_btree_ = std::make_unique<BTree>(kw, ncols, pool_);
      std::vector<size_t> perm(n);
      for (size_t i = 0; i < n; ++i) perm[i] = i;
      std::sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
        for (int kc : primary_keys_) {
          if (cols[kc][a] != cols[kc][b]) return cols[kc][a] < cols[kc][b];
        }
        return rids[a] < rids[b];
      });
      std::vector<int64_t> flat;
      flat.reserve(n * (kw + ncols));
      for (size_t src : perm) {
        for (int kc : primary_keys_) flat.push_back(cols[kc][src]);
        flat.push_back(rids[src]);  // stored rid, NOT position
        for (int c = 0; c < ncols; ++c) flat.push_back(cols[c][src]);
      }
      primary_btree_->BulkLoad(flat);
      break;
    }
    case PrimaryKind::kColumnStore: {
      primary_csi_ = std::make_unique<ColumnStoreIndex>(
          ColumnStoreIndex::Kind::kPrimary, ncols, pool_);
      primary_csi_->BulkLoad(std::move(cols), std::move(rids));
      break;
    }
  }
  next_rid_ = next_rid;
  for (auto& si : secondaries_) RebuildSecondary(si.get());
  Analyze();
}

Status Table::RecoverInsert(int64_t rid, const PackedRow& row) {
  switch (primary_kind_) {
    case PrimaryKind::kHeap: {
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
      break;
    }
    case PrimaryKind::kBTree: {
      std::vector<int64_t> key = MakeBTreeKey(primary_keys_, row, rid);
      HD_RETURN_IF_ERROR(primary_btree_->Insert(key, row, nullptr));
      break;
    }
    case PrimaryKind::kColumnStore:
      HD_RETURN_IF_ERROR(primary_csi_->Insert(row, rid, nullptr));
      break;
  }
  HD_RETURN_IF_ERROR(InsertIntoSecondaries(row, rid, nullptr));
  next_rid_ = std::max(next_rid_, rid + 1);
  return Status::OK();
}

Status Table::RecoverUpdate(int64_t rid, const PackedRow& old_row,
                            const PackedRow& new_row) {
  RowRef ref;
  ref.rid = rid;
  ref.row = old_row;
  return UpdateRows({ref}, {new_row}, nullptr);
}

Status Table::RecoverDelete(int64_t rid, const PackedRow& old_row) {
  RowRef ref;
  ref.rid = rid;
  ref.row = old_row;
  return DeleteRows({ref}, nullptr);
}

uint64_t Table::primary_size_bytes() const {
  switch (primary_kind_) {
    case PrimaryKind::kHeap: return heap_->size_bytes();
    case PrimaryKind::kBTree: return primary_btree_->size_bytes();
    case PrimaryKind::kColumnStore: return primary_csi_->size_bytes();
  }
  return 0;
}

}  // namespace hd
