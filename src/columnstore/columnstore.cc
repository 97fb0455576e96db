#include "columnstore/columnstore.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "common/failpoint.h"
#include "common/telemetry.h"

namespace hd {

namespace {

// Process-wide columnstore health telemetry (paper Section 2 structures:
// delta store depth, delete-bitmap density, row-group fill). Gauges are
// published by delta from SyncTelemetry(), so each one is the sum over
// all live ColumnStoreIndex instances.
struct CsiStats {
  TCounter* inserts = Telemetry::Instance().Counter("csi.inserts");
  TCounter* delta_flushes = Telemetry::Instance().Counter("csi.delta_flushes");
  TCounter* reorganizes = Telemetry::Instance().Counter("csi.reorganizes");
  TCounter* delete_compactions =
      Telemetry::Instance().Counter("csi.delete_compactions");
  TGauge* row_groups = Telemetry::Instance().Gauge("csi.row_groups");
  TGauge* compressed_rows = Telemetry::Instance().Gauge("csi.compressed_rows");
  TGauge* deleted_rows = Telemetry::Instance().Gauge("csi.deleted_rows");
  TGauge* delta_rows = Telemetry::Instance().Gauge("csi.delta_rows");
  TGauge* delete_buffer_rows =
      Telemetry::Instance().Gauge("csi.delete_buffer_rows");
  TGauge* compressed_bytes =
      Telemetry::Instance().Gauge("csi.compressed_bytes");
  TGauge* raw_bytes = Telemetry::Instance().Gauge("csi.raw_bytes");
};

CsiStats& Stats() {
  static CsiStats s;
  return s;
}

/// Row-group versions come from one process-wide sequence, so a version
/// identifies one image of one index.
uint64_t NextVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Predicates on one column, translated into one row group's encoded
/// domain: the intersected value range and its code range.
struct GroupPred {
  int col;
  int64_t lo, hi;
  const ColumnSegment* seg;
  ColumnSegment::CodeRange cr;
};

/// Translate `preds` into row group `g`'s encoded domain: one dictionary
/// binary search per predicate, ranges on one column intersected (code
/// space is ordered like value space). False when no row can match — min/
/// max data skipping, a dictionary miss inside the [min,max] envelope, or
/// disjoint ranges — and the caller skips the group. Otherwise `active`
/// holds the columns whose predicates are not proven all-pass (an `all`
/// result drops the predicate: decode-only).
bool TranslatePreds(const RowGroup& g, const std::vector<SegPredicate>& preds,
                    std::vector<GroupPred>* active) {
  active->clear();
  for (const auto& p : preds) {
    const ColumnSegment& seg = g.segment(p.col);
    const ColumnSegment::CodeRange cr = seg.TranslateRange(p.lo, p.hi);
    if (cr.none) return false;
    if (cr.all) continue;
    auto it = std::find_if(active->begin(), active->end(),
                           [&](const GroupPred& a) { return a.col == p.col; });
    if (it == active->end()) {
      active->push_back(GroupPred{p.col, p.lo, p.hi, &seg, cr});
      continue;
    }
    it->lo = std::max(it->lo, p.lo);
    it->hi = std::min(it->hi, p.hi);
    it->cr.lo = std::max(it->cr.lo, cr.lo);
    it->cr.hi = std::min(it->cr.hi, cr.hi);
    if (it->cr.hi < it->cr.lo) return false;
  }
  return true;
}

/// Compact `sel` (nsel row offsets from `start` in row group `cg`) to the
/// live rows: not set in the group's delete bitmap and not in the delete
/// buffer `dead`. locs[s] is row sel[s]'s locator and moves with it.
/// Returns the live count.
int KeepLive(const CsiGroup& cg, const std::unordered_set<int64_t>& dead,
             size_t start, uint32_t* sel, int64_t* locs, int nsel) {
  const bool check_dead = !dead.empty();
  int k = 0;
  for (int s = 0; s < nsel; ++s) {
    bool live = !cg.IsDeleted(start + sel[s]);
    if (live && check_dead) live = !dead.count(locs[s]);
    sel[k] = sel[s];
    locs[k] = locs[s];
    k += live;
  }
  return k;
}

/// Fill sel[0, n) with the identity selection.
void Identity(uint32_t* sel, int n) {
  for (int i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
}

}  // namespace

ColumnStoreIndex::ColumnStoreIndex(Kind kind, int num_columns,
                                   BufferPool* pool, CsiOptions opts)
    : kind_(kind),
      ncols_(num_columns),
      pool_(pool),
      opts_(opts),
      groups_(std::make_shared<const CsiGroupList>()),
      column_bytes_(num_columns, 0) {
  delta_ = std::make_unique<BTree>(/*key_width=*/1,
                                   /*payload_width=*/ncols_ + 1, pool_);
  if (kind_ == Kind::kSecondary) {
    delete_buffer_ = std::make_unique<BTree>(/*key_width=*/1,
                                             /*payload_width=*/0, pool_);
  }
}

ColumnStoreIndex::~ColumnStoreIndex() {
  Stats().row_groups->Add(-published_.row_groups);
  Stats().compressed_rows->Add(-published_.compressed_rows);
  Stats().deleted_rows->Add(-published_.deleted_rows);
  Stats().delta_rows->Add(-published_.delta_rows);
  Stats().delete_buffer_rows->Add(-published_.delete_buffer_rows);
  Stats().compressed_bytes->Add(-published_.compressed_bytes);
  Stats().raw_bytes->Add(-published_.raw_bytes);
}

void ColumnStoreIndex::SyncTelemetry() {
  Published now;
  now.row_groups = num_groups_;
  now.compressed_rows = static_cast<int64_t>(compressed_rows_);
  now.deleted_rows = static_cast<int64_t>(compressed_deleted_);
  now.delta_rows = static_cast<int64_t>(delta_rows());
  now.delete_buffer_rows = static_cast<int64_t>(delete_buffer_rows());
  now.compressed_bytes = static_cast<int64_t>(compressed_bytes_);
  // Uncompressed footprint of the same rows, for the compression-ratio
  // health signal.
  now.raw_bytes = static_cast<int64_t>(RawBytes(compressed_rows_));
  Stats().row_groups->Add(now.row_groups - published_.row_groups);
  Stats().compressed_rows->Add(now.compressed_rows -
                               published_.compressed_rows);
  Stats().deleted_rows->Add(now.deleted_rows - published_.deleted_rows);
  Stats().delta_rows->Add(now.delta_rows - published_.delta_rows);
  Stats().delete_buffer_rows->Add(now.delete_buffer_rows -
                                  published_.delete_buffer_rows);
  Stats().compressed_bytes->Add(now.compressed_bytes -
                                published_.compressed_bytes);
  Stats().raw_bytes->Add(now.raw_bytes - published_.raw_bytes);
  published_ = now;
}

void ColumnStoreIndex::BuildGroups(std::vector<std::vector<int64_t>> cols,
                                   std::vector<int64_t> locators) {
  const size_t n = locators.size();
  if (opts_.sort_col >= 0 && opts_.sort_col < ncols_ && n > 1) {
    // Sorted columnstore: global sort on the projection column before
    // forming row groups (Section 4.5 extension).
    std::vector<uint32_t> perm(n);
    for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
    const std::vector<int64_t>& key = cols[opts_.sort_col];
    std::sort(perm.begin(), perm.end(),
              [&](uint32_t a, uint32_t b) { return key[a] < key[b]; });
    std::vector<int64_t> tmp(n);
    for (int c = 0; c < ncols_; ++c) {
      for (size_t i = 0; i < n; ++i) tmp[i] = cols[c][perm[i]];
      cols[c].swap(tmp);
    }
    for (size_t i = 0; i < n; ++i) tmp[i] = locators[perm[i]];
    locators.swap(tmp);
  }
  const size_t rg = opts_.rowgroup_size;
  auto list = std::make_shared<CsiGroupList>(*groups_);
  for (size_t start = 0; start < n; start += rg) {
    const size_t take = std::min(rg, n - start);
    std::vector<std::vector<int64_t>> gcols(ncols_);
    for (int c = 0; c < ncols_; ++c) {
      gcols[c].assign(cols[c].begin() + start, cols[c].begin() + start + take);
    }
    std::vector<int64_t> glocs(locators.begin() + start,
                               locators.begin() + start + take);
    auto g = std::make_shared<RowGroup>();
    g->Build(std::move(gcols), std::move(glocs), opts_, pool_);
    list->push_back(CsiGroup{std::move(g), nullptr});
  }
  Publish(std::move(list));
}

void ColumnStoreIndex::Publish(std::shared_ptr<const CsiGroupList> list) {
  groups_ = std::move(list);
  version_ = NextVersion();
  num_groups_ = static_cast<int>(groups_->size());
  compressed_rows_ = compressed_deleted_ = compressed_bytes_ = 0;
  std::fill(column_bytes_.begin(), column_bytes_.end(), 0);
  for (const CsiGroup& g : *groups_) {
    compressed_rows_ += g.rows->num_rows();
    compressed_deleted_ += g.deleted_count();
    compressed_bytes_ += g.rows->size_bytes();
    for (int c = 0; c < ncols_; ++c) {
      column_bytes_[c] += g.rows->segment(c).size_bytes();
    }
  }
}

void ColumnStoreIndex::BulkLoad(std::vector<std::vector<int64_t>> cols,
                                std::vector<int64_t> locators) {
  assert(static_cast<int>(cols.size()) == ncols_);
  BuildGroups(std::move(cols), std::move(locators));
  SyncTelemetry();
}

Status ColumnStoreIndex::Insert(std::span<const int64_t> row, int64_t locator,
                                QueryMetrics* m) {
  assert(static_cast<int>(row.size()) == ncols_);
  std::vector<int64_t> payload(row.begin(), row.end());
  payload.push_back(locator);
  int64_t key = delta_seq_++;
  HD_RETURN_IF_ERROR(
      delta_->Insert(std::span<const int64_t>(&key, 1), payload, m));
  delta_key_of_locator_[locator] = key;
  // Close the delta at the row-group size, or earlier once its raw rows
  // outweigh the compressed row groups: the uncompressed part of the index
  // never exceeds the compressed part (an index with no compressed rows
  // waits for the row-group size).
  const uint64_t delta_n = delta_->num_entries();
  if (delta_n >= opts_.rowgroup_size ||
      (compressed_rows_ > 0 && RawBytes(delta_n) > compressed_bytes_)) {
    // A failed flush is a deferral, not an insert failure: the delta keeps
    // growing past the threshold, scans keep unioning it, and the next
    // insert past the threshold (or an explicit Reorganize) retries.
    (void)CompressDelta(m);
  }
  Stats().inserts->Add(1);
  SyncTelemetry();
  return Status::OK();
}

Status ColumnStoreIndex::CompressDelta(QueryMetrics* m) {
  if (delta_rows() == 0) return Status::OK();
  HD_FAILPOINT_RETURN_M("csi.compress_delta", m);
  // Apply pending logical deletes to the old compressed copies first;
  // otherwise a buffered locator could later match the freshly compressed
  // (live) version of the row.
  HD_RETURN_IF_ERROR(CompactDeleteBuffer(m));
  std::vector<std::vector<int64_t>> cols(ncols_);
  std::vector<int64_t> locs;
  HD_RETURN_IF_ERROR(delta_->Scan(
      Bound::Unbounded(), Bound::Unbounded(),
      [&](const int64_t*, const int64_t* payload) {
        for (int c = 0; c < ncols_; ++c) cols[c].push_back(payload[c]);
        locs.push_back(payload[ncols_]);
        return true;
      },
      m));
  auto g = std::make_shared<RowGroup>();
  g->Build(std::move(cols), std::move(locs), opts_, pool_);
  if (m != nullptr) {
    // Writing the compressed row group is real (sequential) write I/O. A
    // failed write abandons the fresh group before any state changed, so
    // the delta store survives untouched and the flush can be retried.
    HD_RETURN_IF_ERROR(pool_->disk()->Write(g->size_bytes(),
                                            IoPattern::kSequential, m));
  }
  auto list = std::make_shared<CsiGroupList>(*groups_);
  list->push_back(CsiGroup{std::move(g), nullptr});
  Publish(std::move(list));
  delta_->Clear();
  delta_seq_ = 0;
  delta_key_of_locator_.clear();
  Stats().delta_flushes->Add(1);
  SyncTelemetry();
  return Status::OK();
}

Status ColumnStoreIndex::DeleteBatch(std::span<const int64_t> locators,
                                     QueryMetrics* m) {
  if (locators.empty()) return Status::OK();
  if (kind_ == Kind::kSecondary) {
    // Rows still in the delta store are deleted there directly; everything
    // else becomes a fast logical delete via the delete buffer, which
    // changes what the row groups show: a new version.
    version_ = NextVersion();
    for (int64_t loc : locators) {
      auto it = delta_key_of_locator_.find(loc);
      if (it != delta_key_of_locator_.end()) {
        HD_RETURN_IF_ERROR(
            delta_->Delete(std::span<const int64_t>(&it->second, 1), m));
        delta_key_of_locator_.erase(it);
        continue;
      }
      Status s = delete_buffer_->Insert(std::span<const int64_t>(&loc, 1), {}, m);
      if (!s.ok() && s.code() != Code::kInvalidArgument) return s;
    }
    if (delete_buffer_->num_entries() > opts_.delete_buffer_compact_threshold) {
      // Compaction failure defers folding; the buffer keeps shadowing the
      // deleted rows so query results are unaffected.
      (void)CompactDeleteBuffer(m);
    }
    SyncTelemetry();
    return Status::OK();
  }
  // Primary CSI: find each locator's physical position by scanning the
  // compressed locator segments (min/max lets us skip groups, but a
  // matching group's segment must be decoded — the cost Section 3.3
  // measures). One pass per statement.
  std::unordered_set<int64_t> want(locators.begin(), locators.end());
  HD_RETURN_IF_ERROR(MarkDeleted(&want, m));
  // Any remaining locators must be delta-store rows: delete them there.
  for (int64_t loc : want) {
    auto it = delta_key_of_locator_.find(loc);
    if (it == delta_key_of_locator_.end()) continue;
    HD_RETURN_IF_ERROR(
        delta_->Delete(std::span<const int64_t>(&it->second, 1), m));
    delta_key_of_locator_.erase(it);
  }
  SyncTelemetry();
  return Status::OK();
}

Status ColumnStoreIndex::MarkDeleted(std::unordered_set<int64_t>* want,
                                     QueryMetrics* m) {
  if (want->empty() || groups_->empty()) return Status::OK();
  auto list = std::make_shared<CsiGroupList>(*groups_);
  bool changed = false;
  Status st;
  std::vector<int64_t> buf(kBatchSize);
  for (CsiGroup& g : *list) {
    if (want->empty()) break;
    const ColumnSegment& ls = g.rows->locator_segment();
    int64_t lo = INT64_MAX, hi = INT64_MIN;
    for (int64_t l : *want) {
      lo = std::min(lo, l);
      hi = std::max(hi, l);
    }
    if (ls.CanSkip(lo, hi)) {
      if (m != nullptr) m->segments_skipped += 1;
      continue;
    }
    // A mid-way failure publishes the bits already set: the caller keeps
    // the locators it still holds (delete buffer), so nothing resurrects.
    st = ls.Touch(pool_, m);
    if (!st.ok()) break;
    // The published bitmap is shared with read views: change a copy.
    std::shared_ptr<DeleteBitmap> bits;
    const size_t n = g.rows->num_rows();
    for (size_t start = 0; start < n && !want->empty(); start += kBatchSize) {
      const size_t take = std::min<size_t>(kBatchSize, n - start);
      ls.Decode(start, take, buf.data());
      for (size_t i = 0; i < take; ++i) {
        // A locator recurs once its row was updated and the delta closed
        // again; only its one live copy is the row to delete.
        if (g.IsDeleted(start + i)) continue;
        auto it = want->find(buf[i]);
        if (it == want->end()) continue;
        if (bits == nullptr) {
          bits = g.deletes != nullptr ? std::make_shared<DeleteBitmap>(*g.deletes)
                                      : std::make_shared<DeleteBitmap>(n);
          g.deletes = bits;
          changed = true;
        }
        bits->SetDeleted(start + i);
        want->erase(it);
      }
    }
  }
  if (changed) Publish(std::move(list));
  return st;
}

Status ColumnStoreIndex::CompactDeleteBuffer(QueryMetrics* m) {
  if (!delete_buffer_ || delete_buffer_->num_entries() == 0) {
    return Status::OK();
  }
  std::unordered_set<int64_t> dead;
  HD_RETURN_IF_ERROR(SnapshotDeleteBuffer(&dead, m));
  // Skip dead copies of a recurring locator (see MarkDeleted): the
  // buffered delete belongs to its live copy.
  HD_RETURN_IF_ERROR(MarkDeleted(&dead, m));
  delete_buffer_->Clear();
  version_ = NextVersion();
  Stats().delete_compactions->Add(1);
  SyncTelemetry();
  return Status::OK();
}

Status ColumnStoreIndex::FetchRow(int64_t locator, int64_t* out,
                                  QueryMetrics* m) const {
  std::vector<int64_t> buf(kBatchSize);
  for (const CsiGroup& g : *groups_) {
    const RowGroup& rg = *g.rows;
    const ColumnSegment& ls = rg.locator_segment();
    if (ls.CanSkip(locator, locator)) {
      if (m != nullptr) m->segments_skipped += 1;
      continue;
    }
    HD_RETURN_IF_ERROR(ls.Touch(pool_, m));
    const size_t n = rg.num_rows();
    for (size_t start = 0; start < n; start += kBatchSize) {
      const size_t take = std::min<size_t>(kBatchSize, n - start);
      ls.Decode(start, take, buf.data());
      for (size_t i = 0; i < take; ++i) {
        // An updated row leaves dead copies under its locator; its live
        // image is in a later row group or the delta store.
        if (buf[i] != locator || g.IsDeleted(start + i)) continue;
        for (int c = 0; c < ncols_; ++c) {
          HD_RETURN_IF_ERROR(rg.segment(c).Touch(pool_, m));
          rg.segment(c).Decode(start + i, 1, &out[c]);
        }
        return Status::OK();
      }
    }
  }
  auto it = delta_key_of_locator_.find(locator);
  if (it == delta_key_of_locator_.end()) {
    return Status::NotFound("locator not found");
  }
  std::vector<int64_t> payload(ncols_ + 1);
  HD_RETURN_IF_ERROR(delta_->SeekEqual(
      std::span<const int64_t>(&it->second, 1), payload.data(), m));
  std::copy(payload.begin(), payload.begin() + ncols_, out);
  return Status::OK();
}

uint64_t ColumnStoreIndex::num_rows() const {
  uint64_t n = compressed_rows_ - compressed_deleted_ + delta_rows();
  // Secondary delete-buffer entries shadow compressed rows that have not
  // been compacted yet.
  if (delete_buffer_) n -= std::min(n, delete_buffer_->num_entries());
  return n;
}

uint64_t ColumnStoreIndex::size_bytes() const {
  uint64_t b = compressed_bytes_;
  if (delta_) b += delta_->size_bytes();
  if (delete_buffer_) b += delete_buffer_->size_bytes();
  return b;
}

Status ColumnStoreIndex::SnapshotDeleteBuffer(std::unordered_set<int64_t>* out,
                                              QueryMetrics* m) const {
  out->clear();
  if (!delete_buffer_ || delete_buffer_->num_entries() == 0) {
    return Status::OK();
  }
  out->reserve(delete_buffer_->num_entries());
  return delete_buffer_->Scan(Bound::Unbounded(), Bound::Unbounded(),
                              [&](const int64_t* key, const int64_t*) {
                                out->insert(key[0]);
                                return true;
                              },
                              m);
}

Result<CsiViewPtr> ColumnStoreIndex::Pin(const std::vector<int>& delta_cols,
                                         QueryMetrics* m) const {
  auto v = std::shared_ptr<CsiReadView>(new CsiReadView());
  v->ncols_ = ncols_;
  v->pool_ = pool_;
  v->version_ = version_;
  v->groups_ = groups_;
  HD_RETURN_IF_ERROR(SnapshotDeleteBuffer(&v->dead_, m));
  DecodedGroup& d = v->delta_;
  for (int c : delta_cols) {
    if (c < 0 || c >= ncols_ || d.column(c) != nullptr) continue;
    d.cols.push_back(c);
    d.values.emplace_back();
  }
  const uint64_t n = delta_rows();
  if (n > 0) {
    for (auto& col : d.values) col.reserve(n);
    d.locators.reserve(n);
    HD_RETURN_IF_ERROR(delta_->Scan(
        Bound::Unbounded(), Bound::Unbounded(),
        [&](const int64_t*, const int64_t* payload) {
          for (size_t i = 0; i < d.cols.size(); ++i) {
            d.values[i].push_back(payload[d.cols[i]]);
          }
          d.locators.push_back(payload[ncols_]);
          return true;
        },
        m));
  }
  d.rows = d.locators.size();
  return CsiViewPtr(std::move(v));
}

Result<CsiViewPtr> ColumnStoreIndex::Pin(QueryMetrics* m) const {
  std::vector<int> all(ncols_);
  for (int c = 0; c < ncols_; ++c) all[c] = c;
  return Pin(all, m);
}

bool CsiReadView::ColumnRange(int col, int64_t* lo, int64_t* hi) const {
  *lo = INT64_MAX;
  *hi = INT64_MIN;
  for (const CsiGroup& g : *groups_) {
    const ColumnSegment& seg = g.rows->segment(col);
    *lo = std::min(*lo, seg.min_value());
    *hi = std::max(*hi, seg.max_value());
  }
  if (delta_.rows > 0) {
    const int64_t* vals = delta_.column(col);
    if (vals == nullptr) return false;
    for (size_t i = 0; i < delta_.rows; ++i) {
      *lo = std::min(*lo, vals[i]);
      *hi = std::max(*hi, vals[i]);
    }
  }
  return *lo <= *hi;
}

Status CsiReadView::ScanGroups(
    int group_begin, int group_end, const std::vector<int>& cols_needed,
    const std::vector<SegPredicate>& preds,
    const std::function<bool(const ColumnBatch&)>& fn, QueryMetrics* m,
    bool need_locators, const std::vector<ScanKeyFilter>* key_filters) const {
  group_end = std::min(group_end, num_row_groups());
  const bool have_filters = key_filters != nullptr && !key_filters->empty();
  // Map each key filter to its position in cols_needed so its decode
  // buffer doubles as the output column (no second decode downstream).
  std::vector<size_t> kf_ci;
  if (have_filters) {
    for (const auto& kf : *key_filters) {
      size_t ci = 0;
      while (ci < cols_needed.size() && cols_needed[ci] != kf.col) ++ci;
      kf_ci.push_back(ci);  // == size() when absent -> filter skipped
    }
  }
  std::vector<char> col_done(cols_needed.size(), 0);
  const bool check_dead = !dead_.empty();

  // Scratch buffers reused across batches.
  std::vector<std::vector<int64_t>> dec(cols_needed.size());
  for (auto& d : dec) d.resize(kBatchSize);
  SelVector match;
  std::vector<int64_t> loc_buf(kBatchSize);
  std::vector<std::vector<int64_t>> out_cols(cols_needed.size());
  for (auto& d : out_cols) d.resize(kBatchSize);
  std::vector<uint32_t> sel(kBatchSize);
  std::vector<GroupPred> active;

  for (int gi = group_begin; gi < group_end; ++gi) {
    const CsiGroup& cg = (*groups_)[gi];
    const RowGroup& g = *cg.rows;
    if (!TranslatePreds(g, preds, &active)) {
      if (m != nullptr) m->segments_skipped += cols_needed.size() + 1;
      continue;
    }
    // Touch all segments we will decode (I/O accounting).
    for (int c : cols_needed) {
      HD_RETURN_IF_ERROR(g.segment(c).Touch(pool_, m));
    }
    for (const auto& p : preds) {
      bool needed = false;
      for (int c : cols_needed) needed |= (c == p.col);
      if (!needed) HD_RETURN_IF_ERROR(g.segment(p.col).Touch(pool_, m));
    }
    const bool want_locs = need_locators || check_dead || cg.has_deletes();
    if (want_locs) HD_RETURN_IF_ERROR(g.locator_segment().Touch(pool_, m));

    const size_t n = g.num_rows();
    for (size_t start = 0; start < n; start += kBatchSize) {
      const int take = static_cast<int>(std::min<size_t>(kBatchSize, n - start));
      // Build the selection bitmap from encoded-domain predicate matches,
      // then materialize indices only when the batch is genuinely sparse.
      int nsel;
      bool dense;
      if (active.empty()) {
        dense = true;
        nsel = take;
      } else {
        match.Reset(take);
        uint64_t runs = 0;
        for (size_t pi = 0; pi < active.size(); ++pi) {
          runs += active[pi].seg->EvalRange(start, take, active[pi].cr,
                                            /*refine=*/pi > 0, &match);
        }
        if (m != nullptr) m->runs_evaluated += runs;
        if (match.NoneSet()) {
          if (m != nullptr) m->rows_scanned += take;
          continue;
        }
        dense = match.AllSet();
        nsel = dense ? take : match.ToIndices(sel.data());
      }
      if (m != nullptr) {
        m->rows_scanned += take;
        m->rows_selected += nsel;
      }
      // Locators: dense batches decode the whole segment slice; sparse
      // batches gather only surviving rows (loc_buf stays aligned with
      // sel either way).
      if (want_locs) {
        if (dense) {
          g.locator_segment().Decode(start, take, loc_buf.data());
        } else {
          g.locator_segment().DecodeSelected(
              start, std::span<const uint32_t>(sel.data(), nsel),
              loc_buf.data());
        }
      }
      // Filter deleted rows; the compaction keeps loc_buf aligned with sel.
      if (check_dead || cg.has_deletes()) {
        if (dense) Identity(sel.data(), take);
        nsel = KeepLive(cg, dead_, start, sel.data(), loc_buf.data(), nsel);
        if (nsel == 0) continue;
        // Every row survived: sel is the identity again.
        dense = nsel == take;
      }
      // Bloom pushdown: decode each pushed join key for surviving rows
      // only, and drop rows whose key cannot be on the build side —
      // before any other column is gathered. The decoded keys land in
      // the key column's output buffer (compacted along with sel), so
      // the materialization loop below never touches those segments
      // again. Checks/filtered counts are charged to the owning join.
      if (have_filters) {
        std::fill(col_done.begin(), col_done.end(), 0);
        for (size_t fi = 0; fi < key_filters->size(); ++fi) {
          const ScanKeyFilter& kf = (*key_filters)[fi];
          const size_t ci = kf_ci[fi];
          if (ci == cols_needed.size() || kf.bloom == nullptr) continue;
          if (dense) {
            Identity(sel.data(), take);
            dense = false;
          }
          const ColumnSegment& kseg = g.segment(cols_needed[ci]);
          if (!col_done[ci]) {
            // Same bulk-vs-gather heuristic as the main loop.
            if (nsel * 4 >= take * 3) {
              kseg.Decode(start, take, dec[ci].data());
              for (int s = 0; s < nsel; ++s) {
                out_cols[ci][s] = dec[ci][sel[s]];
              }
            } else {
              kseg.DecodeSelected(
                  start, std::span<const uint32_t>(sel.data(), nsel),
                  out_cols[ci].data());
            }
            col_done[ci] = 1;
          }
          int k = 0;
          for (int s = 0; s < nsel; ++s) {
            const bool pass = kf.bloom->MayContain(out_cols[ci][s]);
            sel[k] = sel[s];
            loc_buf[k] = loc_buf[s];
            for (size_t cj = 0; cj < col_done.size(); ++cj) {
              if (col_done[cj]) out_cols[cj][k] = out_cols[cj][s];
            }
            k += pass;
          }
          if (kf.m != nullptr) {
            kf.m->join_bloom_checks += static_cast<uint64_t>(nsel);
            kf.m->join_bloom_filtered += static_cast<uint64_t>(nsel - k);
          }
          nsel = k;
          if (nsel == 0) break;
        }
        if (nsel == 0) continue;
        if (nsel == take) dense = true;
      }
      // Materialize requested columns. Dense batches take the bulk unpack
      // kernels; sparse batches late-materialize — only rows that survived
      // the predicate (and delete filters) are ever decoded, which is what
      // rows_decoded measures. Near-dense batches still decode in bulk and
      // gather: sequential unpack beats a per-row gather above ~75%
      // selectivity.
      ColumnBatch batch;
      batch.count = nsel;
      batch.cols.resize(cols_needed.size());
      const bool bulk = dense || nsel * 4 >= take * 3;
      if (m != nullptr) {
        m->rows_decoded += static_cast<uint64_t>(bulk ? take : nsel);
        if (!bulk) m->rows_late_materialized += static_cast<uint64_t>(nsel);
      }
      for (size_t ci = 0; ci < cols_needed.size(); ++ci) {
        if (have_filters && col_done[ci]) {
          // Already decoded (and compacted) by the Bloom pass.
          batch.cols[ci] = out_cols[ci].data();
          continue;
        }
        const ColumnSegment& seg = g.segment(cols_needed[ci]);
        if (dense) {
          seg.Decode(start, take, dec[ci].data());
          batch.cols[ci] = dec[ci].data();
        } else if (bulk) {
          seg.Decode(start, take, dec[ci].data());
          for (int s = 0; s < nsel; ++s) out_cols[ci][s] = dec[ci][sel[s]];
          batch.cols[ci] = out_cols[ci].data();
        } else {
          seg.DecodeSelected(start,
                             std::span<const uint32_t>(sel.data(), nsel),
                             out_cols[ci].data());
          batch.cols[ci] = out_cols[ci].data();
        }
      }
      batch.locators = want_locs ? loc_buf.data() : nullptr;
      if (m != nullptr) m->rows_output += nsel;
      if (!fn(batch)) return Status::OK();
    }
  }
  return Status::OK();
}

Status CsiReadView::DecodeGroupDense(int gi, const std::vector<int>& cols,
                                     bool want_locators, DecodedGroup* out,
                                     QueryMetrics* m) const {
  const RowGroup& g = *(*groups_)[gi].rows;
  const size_t n = g.num_rows();
  out->group = gi;
  out->rows = n;
  out->cols = cols;
  out->values.resize(cols.size());
  out->decode_bytes = 0;
  for (size_t ci = 0; ci < cols.size(); ++ci) {
    const ColumnSegment& seg = g.segment(cols[ci]);
    HD_RETURN_IF_ERROR(seg.Touch(pool_, m));
    out->values[ci].resize(n);
    seg.Decode(0, n, out->values[ci].data());
    out->decode_bytes += n * sizeof(int64_t);
  }
  if (want_locators) {
    HD_RETURN_IF_ERROR(g.locator_segment().Touch(pool_, m));
    out->locators.resize(n);
    g.locator_segment().Decode(0, n, out->locators.data());
    out->decode_bytes += n * sizeof(int64_t);
  } else {
    out->locators.clear();
  }
  if (m != nullptr) m->rows_decoded += n;
  return Status::OK();
}

Status CsiReadView::ScanDecodedGroup(
    const DecodedGroup& dg, const std::vector<int>& cols_needed,
    const std::vector<SegPredicate>& preds,
    const std::function<bool(const ColumnBatch&)>& fn, QueryMetrics* m,
    bool need_locators, bool* stopped) const {
  return ScanImage(dg, cols_needed, preds, fn, m, need_locators,
                   /*key_filters=*/nullptr, stopped);
}

Status CsiReadView::ScanImage(
    const DecodedGroup& img, const std::vector<int>& cols_needed,
    const std::vector<SegPredicate>& preds,
    const std::function<bool(const ColumnBatch&)>& fn, QueryMetrics* m,
    bool need_locators, const std::vector<ScanKeyFilter>* key_filters,
    bool* stopped) const {
  if (stopped != nullptr) *stopped = false;
  const size_t n = img.rows;
  if (n == 0) return Status::OK();
  bool missing = false;
  auto column = [&](int col) {
    const int64_t* v = img.column(col);
    missing |= v == nullptr;
    return v;
  };
  std::vector<const int64_t*> dense;
  for (int c : cols_needed) dense.push_back(column(c));
  // Delta rows (group -1) are always live: a delete-buffer locator marks
  // the *compressed* copy dead, and a delta row with the same locator is
  // the row's live, newer version (delete-then-insert update pattern).
  const CsiGroup* cg = img.group >= 0 ? &(*groups_)[img.group] : nullptr;

  // Predicates compare on the dense values: a branchless loop over
  // contiguous int64s that builds the selection vector in place. For a
  // row group, translation first eliminates the whole group (the decode
  // was shared, but this consumer still skips the evaluation) or drops
  // all-pass predicates.
  std::vector<GroupPred> active;
  if (cg == nullptr) {
    for (const SegPredicate& p : preds) {
      active.push_back(GroupPred{p.col, p.lo, p.hi, nullptr, {}});
    }
  } else if (!TranslatePreds(*cg->rows, preds, &active)) {
    if (m != nullptr) m->segments_skipped += cols_needed.size() + 1;
    return Status::OK();
  }
  struct ValuePred {
    const int64_t* vals;
    int64_t lo, hi;
  };
  std::vector<ValuePred> valued;
  for (const GroupPred& a : active) {
    valued.push_back(ValuePred{column(a.col), a.lo, a.hi});
  }
  std::vector<std::pair<const ScanKeyFilter*, const int64_t*>> blooms;
  if (key_filters != nullptr) {
    for (const ScanKeyFilter& kf : *key_filters) {
      if (kf.bloom != nullptr) blooms.emplace_back(&kf, column(kf.col));
    }
  }
  if (missing) {
    return Status::Internal("column missing from the scanned image");
  }

  const bool filter_deletes =
      cg != nullptr && (!dead_.empty() || cg->has_deletes());
  std::vector<uint32_t> sel(kBatchSize);
  std::vector<int64_t> locs(filter_deletes ? kBatchSize : 0);
  for (size_t start = 0; start < n; start += kBatchSize) {
    const int take = static_cast<int>(std::min<size_t>(kBatchSize, n - start));
    // all_pass: every row of the batch survives and sel is not consulted.
    int nsel = take;
    bool all_pass = true;
    for (const ValuePred& vp : valued) {
      const int64_t* v = vp.vals + start;
      int k = 0;
      if (all_pass) {
        for (int i = 0; i < take; ++i) {
          sel[k] = static_cast<uint32_t>(i);
          k += static_cast<int>((v[i] >= vp.lo) & (v[i] <= vp.hi));
        }
      } else {
        for (int s = 0; s < nsel; ++s) {
          const uint32_t i = sel[s];
          sel[k] = i;
          k += static_cast<int>((v[i] >= vp.lo) & (v[i] <= vp.hi));
        }
      }
      nsel = k;
      all_pass = nsel == take;
    }
    if (m != nullptr) {
      m->rows_scanned += take;
      m->rows_selected += nsel;
    }
    if (nsel == 0) continue;
    // The pass decodes locators whenever a row group filters deletes.
    if (filter_deletes) {
      if (all_pass) Identity(sel.data(), take);
      const int64_t* dl = img.locators.data() + start;
      for (int s = 0; s < nsel; ++s) locs[s] = dl[sel[s]];
      nsel = KeepLive(*cg, dead_, start, sel.data(), locs.data(), nsel);
      if (nsel == 0) continue;
      all_pass = nsel == take;
    }
    // Bloom pushdown on the surviving rows, one filter at a time; checks
    // and drops are charged to each owning join.
    for (const auto& [kf, keys] : blooms) {
      if (all_pass) Identity(sel.data(), take);
      int k = 0;
      for (int s = 0; s < nsel; ++s) {
        const uint32_t i = sel[s];
        sel[k] = i;
        k += static_cast<int>(kf->bloom->MayContain(keys[start + i]));
      }
      if (kf->m != nullptr) {
        kf->m->join_bloom_checks += static_cast<uint64_t>(nsel);
        kf->m->join_bloom_filtered += static_cast<uint64_t>(nsel - k);
      }
      nsel = k;
      all_pass = nsel == take;
      if (nsel == 0) break;
    }
    if (nsel == 0) continue;
    ColumnBatch batch;
    batch.count = nsel;
    batch.cols.resize(cols_needed.size());
    for (size_t ci = 0; ci < cols_needed.size(); ++ci) {
      batch.cols[ci] = dense[ci] + start;
    }
    batch.locators = (need_locators && !img.locators.empty())
                         ? img.locators.data() + start
                         : nullptr;
    batch.sel = all_pass ? nullptr : sel.data();
    if (m != nullptr) m->rows_output += nsel;
    if (!fn(batch)) {
      if (stopped != nullptr) *stopped = true;
      return Status::OK();
    }
  }
  return Status::OK();
}

bool CsiReadView::TryPushdownAggregates(
    int gi, const std::vector<SegPredicate>& preds,
    std::span<const PushAggSpec> specs, PushAggState* acc, QueryMetrics* m,
    uint64_t* rows_aggregated) const {
  if (rows_aggregated != nullptr) *rows_aggregated = 0;
  if (gi < 0 || gi >= num_row_groups() || specs.empty()) return false;
  const CsiGroup& cg = (*groups_)[gi];
  const RowGroup& g = *cg.rows;
  // Deleted rows would have to be subtracted value-by-value; fall back.
  if (cg.has_deletes() || !dead_.empty()) return false;
  const size_t n = g.num_rows();
  if (n == 0) return true;

  std::vector<GroupPred> active;
  if (!TranslatePreds(g, preds, &active)) {
    // Group eliminated: every spec contributes zero rows.
    if (m != nullptr) {
      m->segments_skipped += specs.size() + 1;
      m->aggs_pushed_down += specs.size();
    }
    return true;
  }
  const bool all_pass = active.empty();

  // Validate that EVERY spec is answerable in the encoded domain before
  // touching `acc`. COUNT always is. SUM/MIN/MAX are when the group is
  // all-pass, or when the single remaining predicate is on the aggregated
  // column itself (per-run / per-code match tests).
  for (const auto& s : specs) {
    if (s.fn == PushAggSpec::Fn::kCount) continue;
    if (all_pass) continue;
    if (active.size() != 1 || active[0].col != s.col) return false;
  }

  // I/O accounting: touch every segment the kernels read.
  std::vector<int> touched;
  for (const auto& s : specs) {
    if (s.fn == PushAggSpec::Fn::kCount) continue;
    bool seen = false;
    for (int c : touched) seen |= (c == s.col);
    if (!seen) touched.push_back(s.col);
  }
  for (const auto& a : active) {
    bool seen = false;
    for (int c : touched) seen |= (c == a.col);
    if (!seen) touched.push_back(a.col);
  }
  for (int c : touched) {
    if (!g.segment(c).Touch(pool_, m).ok()) return false;
  }

  // Selected-row count: n when all rows pass, else popcount of the
  // combined selection bitmap (computed at most once, batch-chunked).
  uint64_t selected = n;
  bool selected_known = all_pass;
  uint64_t runs = 0;
  auto SelectedCount = [&]() -> uint64_t {
    if (!selected_known) {
      SelVector bits;
      uint64_t cnt = 0;
      for (size_t start = 0; start < n; start += kBatchSize) {
        const size_t take = std::min<size_t>(kBatchSize, n - start);
        bits.Reset(take);
        for (size_t pi = 0; pi < active.size(); ++pi) {
          runs += active[pi].seg->EvalRange(start, take, active[pi].cr,
                                            /*refine=*/pi > 0, &bits);
        }
        cnt += bits.Count();
      }
      selected = cnt;
      selected_known = true;
    }
    return selected;
  };

  for (size_t si = 0; si < specs.size(); ++si) {
    const PushAggSpec& s = specs[si];
    PushAggState& a = acc[si];
    switch (s.fn) {
      case PushAggSpec::Fn::kCount:
        a.count += SelectedCount();
        break;
      case PushAggSpec::Fn::kSum: {
        const ColumnSegment& seg = g.segment(s.col);
        if (all_pass) {
          a.sum += seg.SumAll();
          a.count += n;
        } else {
          int64_t sum = 0;
          uint64_t matches = 0;
          runs += seg.SumWhere(active[0].cr, &sum, &matches);
          a.sum += sum;
          a.count += matches;
        }
        break;
      }
      case PushAggSpec::Fn::kMin:
      case PushAggSpec::Fn::kMax: {
        const ColumnSegment& seg = g.segment(s.col);
        int64_t mn, mx;
        if (all_pass) {
          mn = seg.min_value();
          mx = seg.max_value();
        } else if (!seg.MinMaxWhere(active[0].cr, &mn, &mx)) {
          break;  // no matching row in this group; `has` stays as-is
        }
        const bool is_min = s.fn == PushAggSpec::Fn::kMin;
        const int64_t v = is_min ? mn : mx;
        if (!a.has || (is_min ? v < a.minmax : v > a.minmax)) a.minmax = v;
        a.has = true;
        break;
      }
    }
  }
  if (rows_aggregated != nullptr) *rows_aggregated = SelectedCount();
  if (m != nullptr) {
    m->rows_scanned += n;
    m->rows_selected += SelectedCount();
    m->runs_evaluated += runs;
    m->aggs_pushed_down += specs.size();
  }
  return true;
}

Status CsiReadView::ScanDelta(
    const std::vector<int>& cols_needed, const std::vector<SegPredicate>& preds,
    const std::function<bool(const ColumnBatch&)>& fn, QueryMetrics*,
    const std::vector<ScanKeyFilter>* key_filters) const {
  return ScanImage(delta_, cols_needed, preds, fn, /*m=*/nullptr,
                   /*need_locators=*/true, key_filters, /*stopped=*/nullptr);
}

Status CsiReadView::ForEachRow(
    const std::function<bool(int64_t, const int64_t*)>& fn,
    QueryMetrics* m) const {
  std::vector<int> all(ncols_);
  for (int c = 0; c < ncols_; ++c) all[c] = c;
  std::vector<int64_t> row(ncols_);
  bool stop = false;
  auto emit = [&](const ColumnBatch& b) {
    for (int i = 0; i < b.count && !stop; ++i) {
      for (int c = 0; c < ncols_; ++c) row[c] = b.cols[c][i];
      if (!fn(b.locators[i], row.data())) stop = true;
    }
    return !stop;
  };
  HD_RETURN_IF_ERROR(ScanGroups(0, num_row_groups(), all, {}, emit, m));
  if (stop) return Status::OK();
  return ScanDelta(all, {}, emit, m);
}

Status ColumnStoreIndex::Reorganize() {
  HD_FAILPOINT_RETURN("csi.reorganize");
  // Gather every live row (row groups, then delta rows in key order) from
  // a view, then rebuild row groups. All reads happen before any state is
  // replaced, so a failed read leaves the index exactly as it was
  // (reorganize deferred).
  HD_ASSIGN_OR_RETURN(CsiViewPtr view, Pin(nullptr));
  std::vector<std::vector<int64_t>> cols(ncols_);
  std::vector<int64_t> locs;
  HD_RETURN_IF_ERROR(view->ForEachRow(
      [&](int64_t loc, const int64_t* row) {
        for (int c = 0; c < ncols_; ++c) cols[c].push_back(row[c]);
        locs.push_back(loc);
        return true;
      },
      nullptr));
  // Views pinned earlier keep the old groups; the index starts a new list.
  groups_ = std::make_shared<const CsiGroupList>();
  delta_->Clear();
  delta_seq_ = 0;
  delta_key_of_locator_.clear();
  if (delete_buffer_) delete_buffer_->Clear();
  BuildGroups(std::move(cols), std::move(locs));
  Stats().reorganizes->Add(1);
  SyncTelemetry();
  return Status::OK();
}

}  // namespace hd
