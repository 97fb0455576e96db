#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <memory>
#include <shared_mutex>
#include <unordered_map>

#include "common/bloom.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/admission.h"
#include "exec/agg_sink.h"
#include "common/telemetry.h"
#include "exec/explain.h"
#include "exec/join_hash.h"
#include "exec/scan_scheduler.h"

namespace hd {

namespace {

// End-to-end statement latency histograms keyed by statement class, plus
// a failed-statement counter. Recorded once per Execute() call.
struct StmtStats {
  THistogram* select_ns = Telemetry::Instance().Histogram("stmt.select_ns");
  THistogram* update_ns = Telemetry::Instance().Histogram("stmt.update_ns");
  THistogram* delete_ns = Telemetry::Instance().Histogram("stmt.delete_ns");
  THistogram* insert_ns = Telemetry::Instance().Histogram("stmt.insert_ns");
  TCounter* errors = Telemetry::Instance().Counter("stmt.errors");
  // Batch-join process counters, folded from each statement's rollup.
  TCounter* join_batch_probes =
      Telemetry::Instance().Counter("join.batch_probes");
  TCounter* join_matches = Telemetry::Instance().Counter("join.matches");
  TCounter* join_bloom_checks =
      Telemetry::Instance().Counter("join.bloom_checks");
  TCounter* join_bloom_filtered =
      Telemetry::Instance().Counter("join.bloom_filtered");

  THistogram* ForKind(Query::Kind k) {
    switch (k) {
      case Query::Kind::kSelect: return select_ns;
      case Query::Kind::kUpdate: return update_ns;
      case Query::Kind::kDelete: return delete_ns;
      case Query::Kind::kInsert: return insert_ns;
    }
    return select_ns;
  }
};

StmtStats& SStats() {
  static StmtStats s;
  return s;
}

// ---------------------------------------------------------------------
// Predicate binding: Value bounds -> inclusive packed [lo, hi] ranges.
// ---------------------------------------------------------------------

struct BoundPred {
  int col = 0;
  int64_t lo = INT64_MIN;
  int64_t hi = INT64_MAX;
  /// An impossible predicate is an empty range; every scan treats it so.
  bool impossible() const { return lo > hi; }
};

std::vector<BoundPred> BindPreds(const Table& t, const std::vector<Pred>& preds) {
  std::vector<BoundPred> out;
  out.reserve(preds.size());
  for (const auto& p : preds) {
    BoundPred b;
    b.col = p.col;
    if (p.is_equality()) {
      bool found = true;
      int64_t v = t.PackBound(p.col, *p.lo, 0, &found);
      if (found) {
        b.lo = b.hi = v;
      } else {
        b.lo = INT64_MAX;
        b.hi = INT64_MIN;
      }
      out.push_back(b);
      continue;
    }
    if (p.lo.has_value()) {
      bool found = true;
      int64_t v = t.PackBound(p.col, *p.lo, +1, &found);
      b.lo = p.lo_incl || !found ? v : v + 1;
      if (!found) b.lo = v;  // PackBound(+1) already rounded up
    }
    if (p.hi.has_value()) {
      bool found = true;
      int64_t v = t.PackBound(p.col, *p.hi, -1, &found);
      b.hi = p.hi_incl || !found ? v : v - 1;
    }
    out.push_back(b);
  }
  return out;
}

bool CheckPreds(const std::vector<BoundPred>& preds, const int64_t* row) {
  for (const auto& p : preds) {
    const int64_t v = row[p.col];
    if (v < p.lo || v > p.hi) return false;
  }
  return true;
}

bool AnyImpossible(const std::vector<BoundPred>& preds) {
  return std::any_of(preds.begin(), preds.end(),
                     [](const BoundPred& p) { return p.impossible(); });
}

std::vector<SegPredicate> ToSegPreds(const std::vector<BoundPred>& preds) {
  std::vector<SegPredicate> out;
  out.reserve(preds.size());
  for (const auto& p : preds) out.push_back({p.col, p.lo, p.hi});
  return out;
}

// ---------------------------------------------------------------------
// Access paths: which structure a plan names, and how a B+ tree entry
// becomes a row. The columnstore driver (Impl::DriveCsi) and the table
// scan (Impl::ScanTable) build on these.
// ---------------------------------------------------------------------

/// The structure an AccessPath names on one table.
struct ResolvedPath {
  HeapFile* heap = nullptr;
  BTree* tree = nullptr;
  ColumnStoreIndex* csi = nullptr;
  /// B+ tree key columns (the entry key adds a row-id uniquifier) and
  /// payload columns in payload order.
  std::vector<int> key_cols;
  std::vector<int> payload_cols;
};

Status ResolvePath(const Table& t, const AccessPath& path, ResolvedPath* out) {
  if (path.kind == AccessPath::Kind::kHeapScan) {
    out->heap = t.heap();
    return out->heap != nullptr ? Status::OK()
                                : Status::NotFound("heap of " + t.name());
  }
  // An empty name is the primary entry: a clustered B+ tree's payload is
  // the whole row.
  const TableIndex* ix = t.FindIndex(path.index_name);
  const bool named = !path.index_name.empty();
  if (ix == nullptr && named) {
    return Status::NotFound("index " + path.index_name);
  }
  const std::string what =
      named ? "index " + path.index_name : "primary of " + t.name();
  if (path.is_csi()) {
    out->csi = ix != nullptr ? ix->csi.get() : nullptr;
    return out->csi != nullptr ? Status::OK()
                               : Status::NotFound("columnstore " + what);
  }
  if (ix != nullptr && ix->btree) {
    out->tree = ix->btree.get();
    out->key_cols = ix->def.key_cols;
    out->payload_cols = ix->payload_cols;
  }
  return out->tree != nullptr ? Status::OK()
                              : Status::NotFound("B+ tree " + what);
}

/// Seek bounds from predicates on a prefix of the key columns: equalities
/// extend the prefix, the first range ends it.
void KeyPrefixBounds(const std::vector<int>& key_cols,
                     const std::vector<BoundPred>& preds, Bound* lo,
                     Bound* hi) {
  for (int kc : key_cols) {
    const BoundPred* bp = nullptr;
    for (const auto& p : preds) {
      if (p.col == kc) bp = &p;
    }
    if (bp == nullptr) break;
    const bool bounded_lo = bp->lo != INT64_MIN;
    const bool bounded_hi = bp->hi != INT64_MAX;
    if (bounded_lo) lo->key.push_back(bp->lo);
    if (bounded_hi) hi->key.push_back(bp->hi);
    if (!bounded_lo || !bounded_hi || bp->lo != bp->hi) break;
  }
}

/// Decodes B+ tree entries of one table into table-width packed rows. It
/// fills the columns the query reads, checks the predicates on columns
/// the entry holds, and fetches the primary row (a key lookup) only when
/// a needed or predicate column is missing from the entry — the same
/// coverage rule the optimizer costs.
class EntryDecoder {
 public:
  EntryDecoder() = default;
  EntryDecoder(const Table& t, const ResolvedPath& rp, std::vector<int> needed,
               std::vector<BoundPred> preds)
      : table_(&t),
        kw_(static_cast<int>(rp.key_cols.size()) + 1),
        slot_(t.num_columns(), -1),
        needed_(std::move(needed)),
        preds_(std::move(preds)) {
    for (size_t k = 0; k < rp.key_cols.size(); ++k) {
      slot_[rp.key_cols[k]] = static_cast<int>(k);
    }
    for (size_t pi = 0; pi < rp.payload_cols.size(); ++pi) {
      int& s = slot_[rp.payload_cols[pi]];
      if (s < 0) s = kw_ + static_cast<int>(pi);
    }
    for (int pk : t.primary_key_cols()) pk_slots_.push_back(slot_[pk]);
    for (int c : needed_) covering_ &= slot_[c] >= 0;
    for (const auto& p : preds_) covering_ &= slot_[p.col] >= 0;
  }

  int64_t Rid(const int64_t* key) const { return key[kw_ - 1]; }

  /// Decodes one entry into `row`. `*keep` is false when a predicate
  /// rejects the row or its primary row vanished; a failed read is
  /// returned and must fail the scan.
  Status Decode(const int64_t* key, const int64_t* payload, int64_t* row,
                QueryMetrics* m, bool* keep) const {
    auto at = [&](int s) { return s < kw_ ? key[s] : payload[s - kw_]; };
    *keep = false;
    for (const auto& p : preds_) {
      const int s = slot_[p.col];
      if (s >= 0 && (at(s) < p.lo || at(s) > p.hi)) return Status::OK();
    }
    if (covering_) {
      for (int c : needed_) row[c] = at(slot_[c]);
    } else {
      std::vector<int64_t> pk_hint;
      for (int s : pk_slots_) pk_hint.push_back(s >= 0 ? at(s) : 0);
      PackedRow full;
      Status fs = table_->FetchRow(Rid(key), pk_hint, &full, m);
      if (fs.IsIoError()) return fs;
      if (!fs.ok()) return Status::OK();
      std::copy(full.begin(), full.end(), row);
      if (!CheckPreds(preds_, row)) return Status::OK();
    }
    *keep = true;
    return Status::OK();
  }

 private:
  const Table* table_ = nullptr;
  int kw_ = 0;
  /// Entry slot per table column: 0..kw-1 key, kw.. payload, -1 absent.
  std::vector<int> slot_;
  std::vector<int> pk_slots_;
  std::vector<int> needed_;
  std::vector<BoundPred> preds_;
  bool covering_ = true;
};

// ---------------------------------------------------------------------
// Wide-row layout over base + joined dimension tables.
// ---------------------------------------------------------------------

struct Layout {
  std::vector<Table*> tables;  // 0 = base, then query join order
  std::vector<int> offset;
  int total = 0;

  void Build(Table* base, const std::vector<Table*>& dims) {
    tables.clear();
    offset.clear();
    tables.push_back(base);
    for (Table* d : dims) tables.push_back(d);
    int off = 0;
    for (Table* t : tables) {
      offset.push_back(off);
      off += t->num_columns();
    }
    total = off;
  }
  int SlotOf(ColRef c) const { return offset[c.table] + c.col; }
  ValueType TypeOf(ColRef c) const {
    return tables[c.table]->schema().column(c.col).type;
  }
};

void CollectExprCols(const Expr& e, std::vector<ColRef>* out) {
  if (e.kind == Expr::Kind::kCol) out->push_back(e.col);
  for (const auto& c : e.children) CollectExprCols(c, out);
}

// ---------------------------------------------------------------------
// Aggregates.
// ---------------------------------------------------------------------

struct AggDesc {
  AggSpec::Fn fn;
  bool has_arg = false;
  Expr arg;
  /// arg is exactly one column (min/max track packed values, integer sums
  /// stay exact in int64, pushdown can answer it).
  bool arg_is_col = false;
  ColRef arg_col;
  bool arg_is_int = false;  // integer-typed single column
};

// ---------------------------------------------------------------------
// Join structures.
// ---------------------------------------------------------------------

// The join hash table (exec/join_hash.h) carries both the row-mode Find
// and the vectorized ComputeHashes/FindSlots/ExpandMatches kernels; one
// hot probe is a few nanoseconds, which is what makes batch-mode joins an
// order of magnitude cheaper per row than row-mode joins (whose per-row
// operator interpretation overhead is charged separately).
struct HashDim {
  std::vector<int64_t> rows;  // flat, stride = dim ncols
  int stride = 0;
  FlatJoinMap map;
  /// Build-side Bloom filter, pushed into CSI base scans as a join-key
  /// pre-filter (sideways information passing). Empty when never built.
  BlockedBloomFilter bloom;
};

struct NlDim {
  BTree* tree = nullptr;
  EntryDecoder dec;
};

struct JoinExec {
  JoinStep::Method method;
  int base_join_slot = 0;  // wide slot of the base join column
  int dim_offset = 0;      // wide offset of this dim
  HashDim hash;
  NlDim nl;
};

}  // namespace

std::vector<int> ColumnsRead(const Query& q, int table, int num_columns) {
  const bool all = table == 0 && (q.kind != Query::Kind::kSelect ||
                                  (q.aggs.empty() && q.select_cols.empty()));
  std::vector<char> need(num_columns, all ? 1 : 0);
  std::vector<ColRef> refs;
  for (const auto& a : q.aggs) {
    if (a.arg) CollectExprCols(*a.arg, &refs);
  }
  refs.insert(refs.end(), q.group_by.begin(), q.group_by.end());
  refs.insert(refs.end(), q.order_by.begin(), q.order_by.end());
  refs.insert(refs.end(), q.select_cols.begin(), q.select_cols.end());
  for (size_t j = 0; j < q.joins.size(); ++j) {
    refs.push_back(ColRef{0, q.joins[j].base_col});
    refs.push_back(ColRef{static_cast<int>(j) + 1, q.joins[j].dim_col});
  }
  for (const auto& r : refs) {
    if (r.table == table) need[r.col] = 1;
  }
  std::vector<int> out;
  for (int c = 0; c < num_columns; ++c) {
    if (need[c]) out.push_back(c);
  }
  return out;
}

// ---------------------------------------------------------------------
// Executor implementation.
// ---------------------------------------------------------------------

struct Executor::Impl {
  const ExecContext& ctx;
  const Query& q;
  const PhysicalPlan& plan;
  QueryResult res;

  Layout L;
  Table* base = nullptr;
  std::vector<BoundPred> base_preds;
  std::vector<JoinExec> joins;
  std::vector<AggDesc> aggs;
  uint64_t table_hash = 0;

  // Per-operator observability: one OperatorProfile per plan node, built
  // in Setup (exec/explain.h defines the layout). Every data-path counter
  // increment during execution targets exactly one node's metrics block;
  // Execute() rolls all blocks up into res.metrics at the end, so the
  // query totals stay what they always were while EXPLAIN ANALYZE can
  // attribute them. Residual costs with no operator home (lock waits,
  // version-chain probes) charge res.metrics directly.
  std::vector<OperatorProfile> ops;
  OperatorIndex opx;
  QueryMetrics* OpM(int idx) { return idx >= 0 ? &ops[idx].metrics : &res.metrics; }
  QueryMetrics* ScanM() { return OpM(opx.scan); }

  // Locking strategy for this statement.
  bool use_table_lock = false;
  bool row_read_locks = false;
  /// Under SI: a SELECT collects `versioned` in LatchAndPin.
  bool snapshot_reads = false;
  /// The base rids with a version stamped since the statement's snapshot
  /// (TransactionManager::VersionedSince), sorted: the only rows whose
  /// version chain an SI read walks.
  std::vector<int64_t> versioned;
  /// Whether each row the statement reads pays ReadRow: under RC/SR row
  /// locks, or under SI when `versioned` is not empty. Otherwise the
  /// statement reads as auto-commit does: encoded-domain pushdown, no
  /// locators.
  bool txn_row_reads = false;

  /// Set by RunSelect when this statement's base scan routes through the
  /// cooperative shared-scan pass (ctx.scan_scheduler). The scan is then
  /// consumed by this thread alone (the sharing IS the parallelism), so
  /// DriveCsi takes the scheduler branch and reported DOP is 1.
  bool use_shared_scan = false;

  /// WAL id this statement's mutations were logged under, and whether the
  /// statement owns its durability (autocommit: no enclosing transaction,
  /// so Execute commits AFTER the exclusive latch releases — a group-
  /// commit wait inside the latch would serialize all traffic through the
  /// commit window).
  uint64_t wal_txn = 0;
  bool wal_autocommit = false;
  bool wal_wrote = false;

  /// Read view of each layout table the plan scans through a columnstore
  /// (null for heap and B+ tree access), pinned by PinViews.
  std::vector<CsiViewPtr> views;

  /// A SELECT's shared table latches, taken in pointer order. `readers`
  /// counts the layout tables that still read the table under its latch;
  /// the latch is dropped when it reaches zero (DoneReading).
  struct HeldLatch {
    Table* table = nullptr;
    std::shared_lock<FairSharedMutex> lock;
    int readers = 0;
  };
  std::vector<HeldLatch> latches;
  /// Layout tables still counted in their latch's `readers`.
  std::vector<char> latched_read;

  Impl(const ExecContext& c, const Query& qq, const PhysicalPlan& p)
      : ctx(c), q(qq), plan(p) {}

  /// Access path of layout table `ti`, and the join step scanning it (-1
  /// for the base).
  const AccessPath& PathOf(int ti, int* step = nullptr) const {
    for (size_t s = 0; s < plan.joins.size(); ++s) {
      if (plan.joins[s].join_idx + 1 != ti) continue;
      if (step != nullptr) *step = static_cast<int>(s);
      return plan.joins[s].dim_path;
    }
    if (step != nullptr) *step = -1;
    return plan.base;
  }
  /// Pin a read view for every layout table the plan scans through a
  /// columnstore. Runs under the table latches.
  Status PinViews();
  /// SELECT: latch every table in pointer order, pin the views, then drop
  /// each latch no B+ tree or heap read still needs.
  Status LatchAndPin();
  /// Layout table `ti` has finished its latched reads.
  void DoneReading(int ti);

  int dop() const {
    int d = plan.dop;
    int hw = ctx.max_dop > 0 ? ctx.max_dop : ThreadPool::HardwareDop();
    return std::clamp(d, 1, std::max(1, hw));
  }

  Status Setup();
  Status PrepareJoins();
  /// Index into plan.joins of the driving (outer) join step, or -1.
  int DrivingStepIndex() const {
    if (plan.driving_join < 0) return -1;
    for (size_t s = 0; s < plan.joins.size(); ++s) {
      if (plan.joins[s].join_idx == plan.driving_join) {
        return static_cast<int>(s);
      }
    }
    return -1;
  }
  Status RunSelect();
  /// Inclusive packed range of group column `g` known before the scan:
  /// from the base view's segment min/max and delta rows, or from a hash
  /// join's build rows. False when unknown.
  bool GroupKeyRange(ColRef g, int64_t* lo, int64_t* hi) const;
  /// The sink this SELECT ends in: an AggSink when it aggregates, else an
  /// OutputSink. `refs` receives its columns.
  std::unique_ptr<Sink> MakeSink(int nworkers, std::vector<ColRef>* refs) const;
  /// Encoded-domain pushdown specs, one per aggregate, for a global
  /// aggregate over the base table alone; empty when one has none.
  std::vector<PushAggSpec> PushdownSpecs() const;
  /// DML under the base table's exclusive `latch` (see LockUnderLatch).
  Status RunDml(std::unique_lock<FairSharedMutex>* latch);

  /// hd::ColumnsRead of layout table `ti`.
  std::vector<int> ColumnsRead(int ti) const {
    return hd::ColumnsRead(q, ti, L.tables[ti]->num_columns());
  }

  /// One columnstore scan: what to decode, what the scan filters, and an
  /// optional hook that answers row group `g` without decoding it
  /// (encoded-domain aggregate pushdown; returns false to fall back).
  struct CsiScan {
    CsiViewPtr view;
    std::vector<int> cols;
    std::vector<SegPredicate> preds;
    bool need_locators = false;
    bool shared = false;  // attach to the cooperative shared-scan pass
    std::vector<ScanKeyFilter> key_filters;
    std::function<bool(int worker, int g, QueryMetrics* wm)> pushdown;
  };
  CsiScan MakeCsiScan(int ti, const std::vector<BoundPred>& preds);

  /// The columnstore driver: runs `s` over its view's row groups and delta
  /// rows as a shared pass, serially, or as morsels over `nworkers`. The
  /// only reader of read views. `make_handler(worker)` returns the batch
  /// handler for one worker; a handler returning false stops the scan.
  using BatchFn = std::function<bool(const ColumnBatch&)>;
  Status DriveCsi(const CsiScan& s, int nworkers, QueryMetrics* m,
                  const std::string& label,
                  const std::function<BatchFn(int worker)>& make_handler);

  /// Scans layout table `ti` through `path`, driving `emit(worker, rid,
  /// row)` with `nworkers` workers for every row passing `preds`. Rows
  /// carry the ColumnsRead(ti) columns; other slots are unspecified.
  /// `emit` must be thread-compatible (worker-local state indexed by the
  /// worker) and returns false to stop.
  using EmitFn = std::function<bool(int worker, int64_t rid, const int64_t*)>;
  Status ScanTable(int ti, const AccessPath& path,
                   const std::vector<BoundPred>& preds, int nworkers,
                   QueryMetrics* m, const std::string& label,
                   const EmitFn& emit);

  // Schedule `nmorsels` morsels on the shared process-wide pool with at
  // most `nworkers` concurrent participants. `fn(slot, morsel, wm)` runs
  // with a per-slot metrics block; slots are exclusively owned, so fn may
  // index worker-local sinks by `slot`. Per-slot metrics are merged into
  // `m` along with the pool's scheduling counters when the loop finishes.
  // `label` names the operator in the Chrome trace (--trace): when tracing
  // is on, every morsel emits one complete event on its slot's lane.
  // `fn` returns Status; the first non-OK morsel trips the loop's cancel
  // flag so remaining morsels are skipped, and that status (or a pool-level
  // injected status) is returned after per-slot metrics are merged.
  template <typename Fn>
  Status MorselLoop(uint64_t nmorsels, int nworkers, QueryMetrics* m,
                    const std::string& label, Fn&& fn) {
    std::vector<QueryMetrics> wms(nworkers);
    std::atomic<bool> cancel{false};
    std::mutex err_mu;
    Status first_err;
    MorselStats ms = ThreadPool::Global().ParallelFor(
        nmorsels, nworkers,
        [&](int slot, uint64_t mi) {
          const bool tracing = Trace::Enabled();
          const uint64_t t0 = tracing ? Trace::Global().NowUs() : 0;
          Timer t;
          Status s = fn(slot, mi, &wms[slot]);
          wms[slot].cpu_ns += static_cast<uint64_t>(t.ElapsedMs() * 1e6);
          if (tracing) {
            Trace::Global().Record(label, slot, t0,
                                   Trace::Global().NowUs() - t0, mi,
                                   ctx.capture.trace_id);
          }
          if (!s.ok()) {
            {
              std::lock_guard<std::mutex> g(err_mu);
              if (first_err.ok()) first_err = std::move(s);
            }
            cancel.store(true, std::memory_order_relaxed);
          }
        },
        &cancel);
    for (auto& wm : wms) m->Merge(wm);
    m->morsels_scheduled += ms.scheduled;
    m->morsels_stolen += ms.stolen;
    if (!first_err.ok()) return first_err;
    return ms.status;
  }

  // Errors raised inside scan callbacks (row-lock acquisition, non-covering
  // index fetches, NL probes) cannot flow out through the bool-returning
  // callback chain; they are recorded here and checked once the scan
  // returns. First error wins.
  std::mutex side_err_mu;
  Status side_err;
  void RecordSideError(Status s) {
    if (s.ok()) return;
    std::lock_guard<std::mutex> g(side_err_mu);
    if (side_err.ok()) side_err = std::move(s);
  }
  Status TakeSideError() {
    std::lock_guard<std::mutex> g(side_err_mu);
    return side_err;
  }

  Status AcquireReadLocks();
  /// Take `mode` on `res` for the statement's transaction while `latch` is
  /// held. A lock that is not free at once is waited for with the latch
  /// released — the wait then shows in the lock manager's waits-for graph
  /// instead of closing a cycle through the latch — and `*relatched` is
  /// set: what the caller read under the latch may have changed.
  Status LockUnderLatch(std::unique_lock<FairSharedMutex>* latch,
                        const LockResource& res, LockMode mode,
                        bool* relatched);
  /// The work a transaction pays per row read (`txn_row_reads`): under SI
  /// the version chain walk of a row in `versioned`, under RC/SR a row S
  /// lock (released at once under RC). False after recording a lock
  /// failure: stop the scan.
  bool ReadRow(int64_t rid);
};

Status Executor::Impl::Setup() {
  base = ctx.db->GetTable(q.base.table);
  if (base == nullptr) return Status::NotFound("table " + q.base.table);
  std::vector<Table*> dims;
  for (const auto& j : q.joins) {
    Table* d = ctx.db->GetTable(j.dim.table);
    if (d == nullptr) return Status::NotFound("table " + j.dim.table);
    dims.push_back(d);
  }
  L.Build(base, dims);
  base_preds = BindPreds(*base, q.base.preds);
  table_hash = LockManager::HashTable(q.base.table);

  for (const auto& a : q.aggs) {
    AggDesc d;
    d.fn = a.fn;
    d.has_arg = a.arg.has_value();
    if (d.has_arg) {
      d.arg = *a.arg;
      if (d.arg.kind == Expr::Kind::kCol) {
        d.arg_is_col = true;
        d.arg_col = d.arg.col;
        d.arg_is_int = L.TypeOf(d.arg_col) != ValueType::kDouble;
      }
    }
    aggs.push_back(std::move(d));
  }

  // Locking policy.
  if (ctx.txn != nullptr && ctx.txns != nullptr) {
    const bool si = ctx.txn->isolation() == IsolationLevel::kSnapshot;
    if (q.is_read_only() && !si) {
      use_table_lock = plan.est_base_rows > ctx.table_lock_threshold;
      row_read_locks = !use_table_lock;
    }
    snapshot_reads = si;
    txn_row_reads = row_read_locks;
  }

  ops = BuildOperatorSkeleton(q, plan, &opx);
  return Status::OK();
}

Status Executor::Impl::PrepareJoins() {
  const int driving = DrivingStepIndex();
  for (size_t s = 0; s < plan.joins.size(); ++s) {
    const JoinStep& step = plan.joins[s];
    JoinExec je;
    je.method = step.method;
    if (static_cast<int>(s) == driving) {
      // The driving dimension is scanned as the outer side; keep a
      // placeholder so pipeline step indices stay aligned.
      je.method = JoinStep::Method::kHash;
      je.base_join_slot = -1;
      joins.push_back(std::move(je));
      continue;
    }
    // Build-side work (dim scan, hash build, NL setup) is attributed to
    // this join step's operator block.
    QueryMetrics* m = OpM(opx.join[s]);
    const JoinClause& jc = q.joins[step.join_idx];
    const int ti = step.join_idx + 1;
    Table* dim = L.tables[ti];
    je.base_join_slot = L.SlotOf(ColRef{0, jc.base_col});
    je.dim_offset = L.offset[ti];
    std::vector<BoundPred> dim_preds = BindPreds(*dim, jc.dim.preds);
    ResolvedPath rp;
    HD_RETURN_IF_ERROR(ResolvePath(*dim, step.dim_path, &rp));
    if (step.method == JoinStep::Method::kIndexNL) {
      if (rp.tree == nullptr || rp.key_cols.empty() ||
          rp.key_cols[0] != jc.dim_col) {
        return Status::InvalidArgument(
            "IndexNL join requires a B+ tree leading on the join column");
      }
      je.nl.tree = rp.tree;
      je.nl.dec = EntryDecoder(*dim, rp, ColumnsRead(ti), std::move(dim_preds));
      joins.push_back(std::move(je));
      continue;
    }
    // Hash build. A CSI dimension with several row groups is scanned over
    // the morsel pool into per-worker partitions, which are then stitched
    // (index offset fix-up) into the single flat build array the
    // counting-sort Build consumes.
    const int stride = dim->num_columns();
    const int bw =
        views[ti] != nullptr && views[ti]->num_row_groups() > 1 ? dop() : 1;
    struct BuildPart {
      std::vector<int64_t> rows;
      std::vector<std::pair<int64_t, uint32_t>> pairs;
    };
    std::vector<BuildPart> parts(bw);
    HD_RETURN_IF_ERROR(ScanTable(
        ti, step.dim_path, dim_preds, bw, m, ops[opx.join[s]].name + "[build]",
        [&](int w, int64_t, const int64_t* row) {
          BuildPart& pt = parts[w];
          pt.pairs.emplace_back(row[jc.dim_col],
                                static_cast<uint32_t>(pt.rows.size() / stride));
          pt.rows.insert(pt.rows.end(), row, row + stride);
          return true;
        }));
    HD_RETURN_IF_ERROR(TakeSideError());
    // Deterministic kill seam: fires after the build-side scan (latches
    // and any admission pass already held) so tests can prove an error
    // here unwinds without leaking either.
    HD_RETURN_IF_ERROR(EvalFailPoint("exec.join_build", m));
    Timer tbuild;
    HashDim& hd = je.hash;
    hd.stride = stride;
    std::vector<std::pair<int64_t, uint32_t>> pairs;
    for (BuildPart& pt : parts) {
      const uint32_t off = static_cast<uint32_t>(hd.rows.size() / stride);
      if (off == 0) {  // the first non-empty partition moves in
        hd.rows = std::move(pt.rows);
        pairs = std::move(pt.pairs);
        continue;
      }
      hd.rows.insert(hd.rows.end(), pt.rows.begin(), pt.rows.end());
      for (const auto& [k, v] : pt.pairs) pairs.emplace_back(k, v + off);
    }
    hd.map.Build(pairs);
    // The pushdown Bloom filter holds the build keys; an empty build side
    // leaves it all-zero (MayContain always false): the join's semantics.
    hd.bloom.Init(pairs.size());
    for (const auto& kv : pairs) hd.bloom.Insert(kv.first);
    m->cpu_ns += static_cast<uint64_t>(tbuild.ElapsedMs() * 1e6);
    joins.push_back(std::move(je));
    DoneReading(ti);  // the build side is in memory now
  }
  return Status::OK();
}

Status Executor::Impl::PinViews() {
  views.assign(L.tables.size(), nullptr);
  if (q.kind == Query::Kind::kInsert) return Status::OK();  // scans nothing
  // DML reads only its base table, the one it holds latched.
  const size_t ntables = q.kind == Query::Kind::kSelect ? L.tables.size() : 1;
  for (size_t ti = 0; ti < ntables; ++ti) {
    int step = -1;
    const AccessPath& path = PathOf(static_cast<int>(ti), &step);
    if (!path.is_csi()) continue;
    const Table& t = *L.tables[ti];
    ResolvedPath rp;
    HD_RETURN_IF_ERROR(ResolvePath(t, path, &rp));
    // The delta rows are copied only for the columns this scan reads or
    // filters on.
    std::vector<int> cols = ColumnsRead(static_cast<int>(ti));
    const std::vector<Pred>& preds =
        ti == 0 ? q.base.preds : q.joins[ti - 1].dim.preds;
    for (const BoundPred& p : BindPreds(t, preds)) {
      if (std::find(cols.begin(), cols.end(), p.col) == cols.end()) {
        cols.push_back(p.col);
      }
    }
    QueryMetrics* m = step >= 0 ? OpM(opx.join[step]) : ScanM();
    Result<CsiViewPtr> v = rp.csi->Pin(cols, m);
    if (!v.ok()) return v.status();
    views[ti] = v.take();
  }
  return Status::OK();
}

Status Executor::Impl::LatchAndPin() {
  std::vector<Table*> order(L.tables);
  std::sort(order.begin(), order.end());
  order.erase(std::unique(order.begin(), order.end()), order.end());
  latches.reserve(order.size());
  for (Table* t : order) {
    latches.push_back(HeldLatch{t, std::shared_lock<FairSharedMutex>(
                                       t->phys_latch()),
                                0});
  }
  HD_RETURN_IF_ERROR(PinViews());
  if (snapshot_reads) {
    // Nothing newer is missed: a writer notes its versions under the
    // base's exclusive latch, and a pinned view shows no later write.
    versioned = ctx.txns->VersionedSince(table_hash, ctx.txn->snapshot_ts());
    txn_row_reads = !versioned.empty();
  }
  // A columnstore access reads only its pinned view from here on. Heap and
  // B+ tree reads (base scan, hash build side, nested-loop inner, driving
  // dimension) keep their table latched until DoneReading.
  latched_read.assign(L.tables.size(), 0);
  for (size_t ti = 0; ti < L.tables.size(); ++ti) {
    if (views[ti] != nullptr) continue;
    latched_read[ti] = 1;
    for (HeldLatch& h : latches) h.readers += h.table == L.tables[ti];
  }
  std::erase_if(latches, [](const HeldLatch& h) { return h.readers == 0; });
  return Status::OK();
}

void Executor::Impl::DoneReading(int ti) {
  if (latched_read.empty() || !latched_read[ti]) return;
  latched_read[ti] = 0;
  for (auto it = latches.begin(); it != latches.end(); ++it) {
    if (it->table != L.tables[ti]) continue;
    if (--it->readers == 0) latches.erase(it);
    return;
  }
}

Status Executor::Impl::AcquireReadLocks() {
  if (!use_table_lock) return Status::OK();
  return ctx.txns->locks()->Acquire(ctx.txn->id(),
                                    LockResource{table_hash},
                                    LockMode::kS, ctx.lock_timeout_ms,
                                    ctx.txn->age());
}

Status Executor::Impl::LockUnderLatch(std::unique_lock<FairSharedMutex>* latch,
                                      const LockResource& res, LockMode mode,
                                      bool* relatched) {
  LockManager* locks = ctx.txns->locks();
  bool granted = false;
  HD_RETURN_IF_ERROR(locks->TryAcquire(ctx.txn->id(), res, mode, &granted));
  if (granted) return Status::OK();
  latch->unlock();
  Status s = locks->Acquire(ctx.txn->id(), res, mode, ctx.lock_timeout_ms,
                            ctx.txn->age());
  latch->lock();
  *relatched = true;
  return s;
}

bool Executor::Impl::ReadRow(int64_t rid) {
  if (!row_read_locks) {
    // SI: only a row versioned since the snapshot walks its chain.
    if (std::binary_search(versioned.begin(), versioned.end(), rid)) {
      (void)ctx.txns->VersionChainLength(table_hash, rid,
                                         ctx.txn->snapshot_ts());
      res.metrics.version_rows.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }
  Status s = ctx.txns->locks()->Acquire(ctx.txn->id(),
                                        LockResource{table_hash, rid},
                                        LockMode::kS, ctx.lock_timeout_ms,
                                        ctx.txn->age());
  if (!s.ok()) {
    // The lock failure (deadlock victim, injected timeout) becomes the
    // statement status, so the caller retries.
    RecordSideError(std::move(s));
    return false;
  }
  if (ctx.txn->isolation() == IsolationLevel::kReadCommitted) {
    ctx.txns->locks()->Release(ctx.txn->id(), LockResource{table_hash, rid});
  }
  return true;
}

// ---------------------------------------------------------------------
// Table scans: every heap, B+ tree and columnstore scan runs here.
// ---------------------------------------------------------------------

Executor::Impl::CsiScan Executor::Impl::MakeCsiScan(
    int ti, const std::vector<BoundPred>& preds) {
  CsiScan s;
  s.view = views[ti];
  s.cols = ColumnsRead(ti);
  s.preds = ToSegPreds(preds);
  if (ti != 0) return s;
  // Locators (row ids) are only needed when rows pay ReadRow or DML
  // collects row references.
  s.need_locators = txn_row_reads || q.kind != Query::Kind::kSelect;
  s.shared = use_shared_scan;
  // Bloom pushdown: every hash join's build-side filter runs inside the
  // scan on the decoded join-key vector, so rows that cannot join are
  // dropped before the other columns are gathered. Checks are charged to
  // the owning join's operator block.
  for (size_t j = 0; j < joins.size(); ++j) {
    const JoinExec& je = joins[j];
    if (je.method == JoinStep::Method::kHash && !je.hash.bloom.empty()) {
      s.key_filters.push_back(
          ScanKeyFilter{je.base_join_slot, &je.hash.bloom, OpM(opx.join[j])});
    }
  }
  return s;
}

Status Executor::Impl::DriveCsi(
    const CsiScan& s, int nworkers, QueryMetrics* m, const std::string& label,
    const std::function<BatchFn(int worker)>& make_handler) {
  for (const auto& p : s.preds) {
    if (p.lo > p.hi) return Status::OK();  // impossible predicate
  }
  const CsiReadView& view = *s.view;
  const std::vector<ScanKeyFilter>* kfp =
      s.key_filters.empty() ? nullptr : &s.key_filters;
  const int ngroups = view.num_row_groups();
  std::atomic<bool> stop{false};
  auto stopping = [&stop](BatchFn inner) -> BatchFn {
    return [&stop, inner = std::move(inner)](const ColumnBatch& b) {
      if (inner(b)) return true;
      stop.store(true, std::memory_order_relaxed);
      return false;
    };
  };
  // Row groups [gb, ge) for worker w; gb < 0 selects the delta rows
  // (never shared).
  auto scan = [&](int w, int gb, int ge, QueryMetrics* wm) -> Status {
    if (stop.load(std::memory_order_relaxed)) return Status::OK();
    // Seam inside the scan, after every latch a columnstore-only statement
    // gives up: tests park a scan here and write to the table meanwhile.
    HD_RETURN_IF_ERROR(EvalFailPoint("exec.csi_scan", wm));
    const BatchFn fn = stopping(make_handler(w));
    if (gb < 0) return view.ScanDelta(s.cols, s.preds, fn, wm, kfp);
    if (!s.pushdown) {
      return view.ScanGroups(gb, ge, s.cols, s.preds, fn, wm, s.need_locators,
                             kfp);
    }
    for (int g = gb; g < ge; ++g) {
      if (s.pushdown(w, g, wm)) continue;
      HD_RETURN_IF_ERROR(view.ScanGroups(g, g + 1, s.cols, s.preds, fn, wm,
                                         s.need_locators, kfp));
    }
    return Status::OK();
  };
  if (nworkers > 1 && !s.shared) {
    // Morsel = one row group, plus a last one for the delta store.
    return MorselLoop(
        static_cast<uint64_t>(ngroups) + 1, nworkers, m, label,
        [&](int slot, uint64_t mi, QueryMetrics* wm) {
          const int g = mi < static_cast<uint64_t>(ngroups)
                            ? static_cast<int>(mi)
                            : -1;
          return scan(slot, g, g + 1, wm);
        });
  }
  Timer t;
  Status st = s.shared ? ctx.scan_scheduler->Scan(s.view, s.cols, s.preds,
                                                  stopping(make_handler(0)), m,
                                                  s.need_locators)
                       : scan(0, 0, ngroups, m);
  if (st.ok()) st = scan(0, -1, 0, m);
  m->cpu_ns += static_cast<uint64_t>(t.ElapsedMs() * 1e6);
  return st;
}

Status Executor::Impl::ScanTable(int ti, const AccessPath& path,
                                 const std::vector<BoundPred>& preds,
                                 int nworkers, QueryMetrics* m,
                                 const std::string& label,
                                 const EmitFn& emit) {
  if (AnyImpossible(preds)) return Status::OK();
  const Table& t = *L.tables[ti];
  const int ncols = t.num_columns();
  ResolvedPath rp;
  HD_RETURN_IF_ERROR(ResolvePath(t, path, &rp));
  switch (path.kind) {
    case AccessPath::Kind::kHeapScan: {
      // Morsel = a fixed-size page range; the pool's participants drain
      // and steal morsels instead of owning one static range each.
      constexpr uint64_t kHeapMorselRows = 65536;
      const uint64_t n = rp.heap->num_rows();
      const double row_oh = nworkers > 1 ? ctx.parallel_row_overhead_ns
                                         : ctx.serial_row_overhead_ns;
      std::atomic<bool> stop{false};
      auto scan_rows = [&](int w, uint64_t lo, uint64_t hi,
                           QueryMetrics* wm) -> Status {
        uint64_t seen = 0;
        Status ss = rp.heap->ScanRange(
            lo, hi,
            [&](uint64_t rid, const int64_t* row) {
              ++seen;
              if (!CheckPreds(preds, row)) return true;
              if (emit(w, static_cast<int64_t>(rid), row)) return true;
              stop.store(true, std::memory_order_relaxed);
              return false;
            },
            wm);
        wm->cpu_ns += static_cast<uint64_t>(seen * row_oh);
        return ss;
      };
      if (nworkers <= 1) {
        Timer tm;
        Status ss = scan_rows(0, 0, n, m);
        m->cpu_ns += static_cast<uint64_t>(tm.ElapsedMs() * 1e6);
        return ss;
      }
      return MorselLoop(
          (n + kHeapMorselRows - 1) / kHeapMorselRows, nworkers, m, label,
          [&](int slot, uint64_t mi, QueryMetrics* wm) -> Status {
            if (stop.load(std::memory_order_relaxed)) return Status::OK();
            const uint64_t lo = mi * kHeapMorselRows;
            return scan_rows(slot, lo, std::min(n, lo + kHeapMorselRows), wm);
          });
    }
    case AccessPath::Kind::kBTreeRange:
    case AccessPath::Kind::kBTreeFullScan: {
      Bound lo, hi;
      KeyPrefixBounds(rp.key_cols, preds, &lo, &hi);
      const EntryDecoder dec(t, rp, ColumnsRead(ti), preds);
      std::vector<PackedRow> rows(nworkers, PackedRow(ncols));
      auto make_handler = [&](int w, QueryMetrics* wm, uint64_t* seen) {
        return [&, w, wm, seen](const int64_t* key, const int64_t* payload) {
          ++*seen;
          bool keep = false;
          Status ds = dec.Decode(key, payload, rows[w].data(), wm, &keep);
          if (!ds.ok()) {
            RecordSideError(std::move(ds));
            return false;
          }
          return !keep || emit(w, dec.Rid(key), rows[w].data());
        };
      };
      if (nworkers <= 1) {
        Timer tm;
        uint64_t seen = 0;
        Status ss = rp.tree->Scan(lo, hi, make_handler(0, m, &seen), m);
        m->cpu_ns += static_cast<uint64_t>(tm.ElapsedMs() * 1e6) +
                     static_cast<uint64_t>(seen * ctx.serial_row_overhead_ns);
        return ss;
      }
      // Morsel = a small batch of leaves (16 morsels per participant at
      // the initial split keeps stealing granular without per-leaf
      // scheduling overhead).
      std::vector<LeafHandle> leaves;
      HD_RETURN_IF_ERROR(rp.tree->CollectLeaves(lo, hi, m, &leaves));
      const uint64_t nleaves = leaves.size();
      const uint64_t chunk = std::max<uint64_t>(
          1, nleaves / (16ull * static_cast<uint64_t>(nworkers)));
      return MorselLoop(
          (nleaves + chunk - 1) / chunk, nworkers, m, label,
          [&](int slot, uint64_t mi, QueryMetrics* wm) -> Status {
            uint64_t seen = 0;
            auto handler = make_handler(slot, wm, &seen);
            const uint64_t e = std::min(nleaves, (mi + 1) * chunk);
            Status ss;
            for (uint64_t li = mi * chunk; li < e && ss.ok(); ++li) {
              ss = rp.tree->ScanLeaf(leaves[li], lo, hi, handler, wm);
            }
            wm->cpu_ns += static_cast<uint64_t>(
                seen * ctx.parallel_row_overhead_ns);
            return ss;
          });
    }
    case AccessPath::Kind::kCsiScan: {
      const CsiScan s = MakeCsiScan(ti, preds);
      std::vector<PackedRow> rows(nworkers, PackedRow(ncols));
      return DriveCsi(s, nworkers, m, label, [&](int w) -> BatchFn {
        return [&, w](const ColumnBatch& b) {
          int64_t* row = rows[w].data();
          for (int i = 0; i < b.count; ++i) {
            const uint32_t pi =
                b.sel != nullptr ? b.sel[i] : static_cast<uint32_t>(i);
            for (size_t c = 0; c < s.cols.size(); ++c) {
              row[s.cols[c]] = b.cols[c][pi];
            }
            const int64_t rid = b.locators != nullptr ? b.locators[pi] : -1;
            if (!emit(w, rid, row)) return false;
          }
          return true;
        };
      });
    }
  }
  return Status::Internal("unreachable");
}

// ---------------------------------------------------------------------
// SELECT execution.
// ---------------------------------------------------------------------

namespace {

/// `e` with every column leaf renamed by `col_of` (ColRef -> sink column).
template <typename ColOf>
Expr RemapCols(const Expr& e, ColOf&& col_of) {
  Expr out = e;
  if (e.kind == Expr::Kind::kCol) out.col = ColRef{0, col_of(e.col)};
  for (auto& c : out.children) c = RemapCols(c, col_of);
  return out;
}

}  // namespace

bool Executor::Impl::GroupKeyRange(ColRef g, int64_t* lo, int64_t* hi) const {
  if (g.table == 0) {
    return views[0] != nullptr && views[0]->ColumnRange(g.col, lo, hi);
  }
  // A hash-joined dimension: its build rows hold every value a join
  // output row can carry.
  const int driving = DrivingStepIndex();
  for (size_t s = 0; s < plan.joins.size(); ++s) {
    if (plan.joins[s].join_idx + 1 != g.table) continue;
    if (static_cast<int>(s) == driving ||
        joins[s].method != JoinStep::Method::kHash) {
      return false;
    }
    const HashDim& hd = joins[s].hash;
    *lo = INT64_MAX;
    *hi = INT64_MIN;
    for (size_t off = g.col; off < hd.rows.size(); off += hd.stride) {
      *lo = std::min(*lo, hd.rows[off]);
      *hi = std::max(*hi, hd.rows[off]);
    }
    return *lo <= *hi;
  }
  return false;
}

std::unique_ptr<Sink> Executor::Impl::MakeSink(
    int nworkers, std::vector<ColRef>* refs) const {
  auto col_of = [refs](ColRef r) {
    auto it = std::find(refs->begin(), refs->end(), r);
    if (it != refs->end()) return static_cast<int>(it - refs->begin());
    refs->push_back(r);
    return static_cast<int>(refs->size()) - 1;
  };
  auto sink_cols = [&] {
    std::vector<SinkColumn> cols;
    for (const ColRef& r : *refs) {
      cols.push_back(SinkColumn{L.tables[r.table], r.col, L.TypeOf(r)});
    }
    return cols;
  };
  if (aggs.empty()) {
    // The select list (every base column for SELECT *), then the ORDER BY
    // columns it lacks.
    *refs = q.select_cols;
    if (refs->empty()) {
      for (int c = 0; c < base->num_columns(); ++c) refs->push_back({0, c});
    }
    const size_t nout = refs->size();
    std::vector<int> order_keys;
    for (const ColRef& ob : q.order_by) order_keys.push_back(col_of(ob));
    return std::make_unique<OutputSink>(OutputSink::Options{
        .cols = sink_cols(), .nout = nout, .order_keys = std::move(order_keys),
        .sort = plan.explicit_sort, .limit = q.limit, .nworkers = nworkers,
        .grant = ctx.memory_grant_bytes, .disk = ctx.db->disk()});
  }
  AggSink::Options o;
  *refs = q.group_by;
  for (const AggDesc& a : aggs) {
    SinkAgg s;
    s.fn = a.fn;
    const bool minmax =
        a.fn == AggSpec::Fn::kMin || a.fn == AggSpec::Fn::kMax;
    if (a.fn == AggSpec::Fn::kCount) {
      s.kind = SinkAgg::Kind::kCount;
    } else if (a.arg_is_col && (a.arg_is_int || minmax)) {
      s.kind = SinkAgg::Kind::kPacked;
      s.col = col_of(a.arg_col);
    } else {
      s.kind = SinkAgg::Kind::kNumeric;
      s.expr = RemapCols(a.arg, col_of);
    }
    o.aggs.push_back(std::move(s));
  }
  o.cols = sink_cols();
  o.key_width = q.group_by.size();
  o.nworkers = nworkers;
  o.grant = ctx.memory_grant_bytes;
  o.disk = ctx.db->disk();
  // A stream aggregate reads the group key in order: one running group.
  o.sorted_input = plan.agg == AggMethod::kStream;
  // ORDER BY names group columns; their positions in the group key.
  for (const ColRef& ob : q.order_by) {
    auto it = std::find(q.group_by.begin(), q.group_by.end(), ob);
    if (it != q.group_by.end()) {
      o.order_keys.push_back(static_cast<int>(it - q.group_by.begin()));
    }
  }
  o.limit = q.limit;
  // The key range comes from the pinned view (or build rows) the
  // statement reads, so it holds inside a transaction too.
  if (q.group_by.size() == 1) {
    o.key_range_known = GroupKeyRange(q.group_by[0], &o.key_lo, &o.key_hi);
  }
  return std::make_unique<AggSink>(std::move(o));
}

std::vector<PushAggSpec> Executor::Impl::PushdownSpecs() const {
  std::vector<PushAggSpec> out;
  if (aggs.empty() || !q.group_by.empty() || !q.joins.empty()) return out;
  // Min/max push any column (packing preserves order); SUM/AVG only
  // integer columns (double sums need value-domain addition).
  using F = PushAggSpec::Fn;
  for (const AggDesc& a : aggs) {
    const bool sum = a.fn == AggSpec::Fn::kSum || a.fn == AggSpec::Fn::kAvg;
    const bool min = a.fn == AggSpec::Fn::kMin;
    if (a.fn == AggSpec::Fn::kCount && !a.has_arg) {
      out.push_back({F::kCount, 0});
    } else if (a.arg_is_col && a.fn != AggSpec::Fn::kCount &&
               (!sum || a.arg_is_int)) {
      out.push_back({sum ? F::kSum : min ? F::kMin : F::kMax, a.arg_col.col});
    } else {
      return {};
    }
  }
  return out;
}

Status Executor::Impl::RunSelect() {
  HD_RETURN_IF_ERROR(PrepareJoins());

  // Shared-scan routing. A non-transactional single-table SELECT over a
  // CSI attaches to the cooperative pass when a scheduler is configured —
  // UNLESS encoded-domain aggregate pushdown answers it structurally
  // (every non-COUNT aggregate's predicates sit on its own column): those
  // queries decode nothing, so sharing a decode would only cost them.
  // Stream aggregation and scan-provided ordering need ascending row
  // order, which the circular pass does not give.
  const std::vector<PushAggSpec> pspecs = PushdownSpecs();
  const bool pushable =
      !pspecs.empty() &&
      std::all_of(pspecs.begin(), pspecs.end(), [&](const PushAggSpec& a) {
        return a.fn == PushAggSpec::Fn::kCount ||
               std::all_of(base_preds.begin(), base_preds.end(),
                           [&](const BoundPred& p) { return p.col == a.col; });
      });
  use_shared_scan = ctx.scan_scheduler != nullptr && ctx.txn == nullptr &&
                    plan.base.is_csi() && joins.empty() &&
                    plan.driving_join < 0 && plan.agg != AggMethod::kStream &&
                    (q.order_by.empty() || plan.explicit_sort) && !pushable;
  // The shared pass is consumed by this thread alone: concurrency comes
  // from the other queries attached to the same pass, not from morsels.
  const int nworkers = use_shared_scan ? 1 : dop();
  res.metrics.dop = nworkers;

  // The statement's one sink; its columns (sink_refs) are all the
  // pipeline delivers.
  std::vector<ColRef> sink_refs;
  const std::unique_ptr<Sink> sink = MakeSink(nworkers, &sink_refs);
  std::vector<int> sink_slots;
  for (const ColRef& r : sink_refs) sink_slots.push_back(L.SlotOf(r));
  std::vector<std::vector<int64_t>> sink_row(
      nworkers, std::vector<int64_t>(sink_refs.size()));

  // Rows encoded-domain aggregate pushdown answered, per worker: they flow
  // scan→agg in the operator profiles even though no batch materialized.
  std::vector<uint64_t> pushed_rows(nworkers, 0);

  // Per-worker row-flow counters, folded into the operator profiles after
  // the scan (plain uint64 per worker: no hot-path atomics).
  const size_t nsteps = plan.joins.size();
  std::vector<uint64_t> base_out(nworkers, 0);
  std::vector<std::vector<uint64_t>> join_in(nsteps,
                                             std::vector<uint64_t>(nworkers, 0));
  std::vector<std::vector<uint64_t>> join_out(
      nsteps, std::vector<uint64_t>(nworkers, 0));

  // The row-mode pipeline's end: one wide row into the sink.
  auto consume = [&](int w, const int64_t* wide, int64_t rid) -> bool {
    if (txn_row_reads && !ReadRow(rid)) return false;
    int64_t* v = sink_row[w].data();
    for (size_t k = 0; k < sink_slots.size(); ++k) v[k] = wide[sink_slots[k]];
    return sink->AddRow(w, v);
  };

  // Join pipeline: expand wide rows through join steps, then consume.
  const int driving_step = DrivingStepIndex();
  std::vector<std::vector<int64_t>> wide_bufs(nworkers,
                                              std::vector<int64_t>(L.total));
  // Row-mode pipelines pay per-probe operator overhead; batch pipelines
  // (CSI base) do not — charged after the scan from the join_in counters.
  std::function<bool(int, int64_t*, int64_t, size_t)> pipeline =
      [&](int w, int64_t* wide, int64_t rid, size_t step) -> bool {
    if (step == joins.size()) return consume(w, wide, rid);
    if (static_cast<int>(step) == driving_step) {
      return pipeline(w, wide, rid, step + 1);  // already materialized
    }
    JoinExec& je = joins[step];
    const int64_t key = wide[je.base_join_slot];
    join_in[step][w]++;
    if (je.method == JoinStep::Method::kHash) {
      uint32_t nmatch = 0;
      const uint32_t* matches = je.hash.map.Find(key, &nmatch);
      for (uint32_t mi = 0; mi < nmatch; ++mi) {
        const int64_t* dim_row =
            je.hash.rows.data() +
            static_cast<size_t>(matches[mi]) * je.hash.stride;
        std::copy(dim_row, dim_row + je.hash.stride, wide + je.dim_offset);
        join_out[step][w]++;
        if (!pipeline(w, wide, rid, step + 1)) return false;
      }
      return true;
    }
    // Index nested-loop probe.
    NlDim& nd = je.nl;
    Bound lo = Bound::Inclusive({key});
    Bound hi = Bound::Inclusive({key});
    bool cont = true;
    // Probe-side charges land on this join's operator block (atomic adds,
    // thread-safe across morsel workers).
    QueryMetrics* wm = OpM(opx.join[step]);
    Status ps = nd.tree->Scan(lo, hi, [&](const int64_t* ekey, const int64_t* payload) {
      wm->cpu_ns += static_cast<uint64_t>(ctx.serial_row_overhead_ns);
      bool keep = false;
      Status ds = nd.dec.Decode(ekey, payload, wide + je.dim_offset, wm, &keep);
      if (!ds.ok()) {
        RecordSideError(std::move(ds));
        cont = false;
        return false;
      }
      if (!keep) return true;
      join_out[step][w]++;
      cont = pipeline(w, wide, rid, step + 1);
      return cont;
    }, wm);
    if (!ps.ok()) {
      RecordSideError(std::move(ps));
      return false;
    }
    return cont;
  };

  // A columnstore base whose join steps are all hash joins runs the
  // batch pipeline.
  const bool batch_base =
      plan.base.is_csi() && plan.driving_join < 0 &&
      std::all_of(joins.begin(), joins.end(), [](const JoinExec& j) {
        return j.method == JoinStep::Method::kHash;
      });
  ResolvedPath base_rp;
  HD_RETURN_IF_ERROR(ResolvePath(*base, plan.base, &base_rp));
  Status scan_status;
  if (plan.driving_join >= 0 && driving_step >= 0) {
    // Dimension-driven hybrid plan: scan the (filtered) driving dimension
    // as the outer side, seek the base table's B+ tree per dim row.
    const JoinClause& jc = q.joins[plan.driving_join];
    if (base_rp.tree == nullptr || base_rp.key_cols.empty() ||
        base_rp.key_cols[0] != jc.base_col) {
      return Status::InvalidArgument(
          "dim-driven plan needs a base B+ tree leading on the join column");
    }
    const int ti = plan.driving_join + 1;
    Table* dim = L.tables[ti];
    const int dstride = dim->num_columns();
    // The filtered dimension is collected first, so its scan charges land
    // on the DimDriver node and the base seeks (and residual fetches) on
    // the scan node.
    std::vector<int64_t> dim_buf;
    HD_RETURN_IF_ERROR(ScanTable(
        ti, plan.joins[driving_step].dim_path, BindPreds(*dim, jc.dim.preds),
        1, OpM(opx.join[driving_step]), ops[opx.join[driving_step]].name,
        [&](int, int64_t, const int64_t* row) {
          dim_buf.insert(dim_buf.end(), row, row + dstride);
          return true;
        }));
    HD_RETURN_IF_ERROR(TakeSideError());
    DoneReading(ti);
    const EntryDecoder dec(*base, base_rp, ColumnsRead(0), base_preds);
    QueryMetrics* sm = ScanM();
    int64_t* wide = wide_bufs[0].data();
    const uint64_t dim_rows = dim_buf.size() / dstride;
    uint64_t fact_entries = 0;
    bool cont = true;
    Timer t;
    for (size_t off = 0; off < dim_buf.size() && cont && scan_status.ok();
         off += dstride) {
      std::copy(&dim_buf[off], &dim_buf[off] + dstride, wide + L.offset[ti]);
      const int64_t key = dim_buf[off + jc.dim_col];
      scan_status = base_rp.tree->Scan(
          Bound::Inclusive({key}), Bound::Inclusive({key}),
          [&](const int64_t* ekey, const int64_t* payload) {
            ++fact_entries;
            bool keep = false;
            Status ds = dec.Decode(ekey, payload, wide, sm, &keep);
            if (!ds.ok()) {
              RecordSideError(std::move(ds));
              cont = false;
            } else if (keep) {
              base_out[0]++;
              cont = pipeline(0, wide, dec.Rid(ekey), 0);
            }
            return cont;
          },
          sm);
    }
    sm->cpu_ns += static_cast<uint64_t>(t.ElapsedMs() * 1e6) +
                  static_cast<uint64_t>(fact_entries * ctx.serial_row_overhead_ns);
    ops[opx.join[driving_step]].rows_in = dim_rows;
    ops[opx.join[driving_step]].rows_out = dim_rows;
    ops[opx.scan].rows_in = fact_entries;
  } else if (batch_base) {
    // ---- Batch pipeline (CSI base, all-hash join steps). ----
    // Each decoded batch carries a probe selection (prow: surviving batch
    // positions) plus one build-row vector per completed step. A step
    // gathers the key column through prow, runs the vectorized
    // ComputeHashes / FindSlots / ExpandMatches kernels, and remaps the
    // carried vectors through the matches — multi-match keys expand, FK
    // -> PK takes the 1-match fast path. At the end, a statement in a
    // transaction pays ReadRow on each surviving match's locator, as row
    // mode pays it per row, and only the sink columns are gathered (base
    // columns through prow, dimension columns through the build rows)
    // into the sink. No wide row is built.
    CsiScan scan = MakeCsiScan(0, base_preds);
    std::vector<int> colslot(base->num_columns(), -1);
    for (size_t i = 0; i < scan.cols.size(); ++i) colslot[scan.cols[i]] = i;
    // Batch-column index of each step's base join key (base wide slots
    // coincide with base column ids — the base is table 0 at offset 0).
    std::vector<int> key_ci(nsteps, -1);
    for (size_t s = 0; s < nsteps; ++s) {
      key_ci[s] = colslot[joins[s].base_join_slot];
    }
    // Source of each sink column: a batch column, or a step's build rows.
    const size_t nsink = sink_refs.size();
    std::vector<int> src_ci(nsink, -1), src_step(nsink, -1);
    for (size_t k = 0; k < nsink; ++k) {
      const ColRef r = sink_refs[k];
      if (r.table == 0) {
        src_ci[k] = colslot[r.col];
        continue;
      }
      for (size_t s = 0; s < nsteps; ++s) {
        if (plan.joins[s].join_idx + 1 == r.table) src_step[k] = s;
      }
    }
    if (!pspecs.empty() && !txn_row_reads) {
      // A row group answered entirely from segment metadata and encoded
      // kernels never reaches the batch handler (Fig. 4 aggregate
      // pushdown); its partials fold straight into the sink, an AggSink.
      // A statement whose rows pay ReadRow reads every row: no pushdown.
      auto* agg = static_cast<AggSink*>(sink.get());
      scan.pushdown = [&, agg](int w, int g, QueryMetrics* wm) {
        std::vector<PushAggState> acc(pspecs.size());
        uint64_t pr = 0;
        if (!scan.view->TryPushdownAggregates(g, scan.preds, pspecs,
                                              acc.data(), wm, &pr)) {
          return false;
        }
        agg->AddPushed(w, pr, acc.data());
        pushed_rows[w] += pr;
        return true;
      };
    }
    struct BatchScratch {
      std::vector<int64_t> keys;
      std::vector<uint64_t> hashes;
      std::vector<int32_t> slots;
      std::vector<uint32_t> prow;
      std::vector<uint32_t> remap;
      std::vector<std::vector<uint32_t>> brows;  // per-step build rows
      std::vector<uint32_t> mp, mb;
      std::vector<std::vector<int64_t>> gathered;  // per sink column
      std::vector<const int64_t*> in;
    };
    std::vector<BatchScratch> scratch(nworkers);
    for (auto& js : scratch) {
      js.brows.resize(nsteps);
      js.gathered.resize(nsink);
      js.in.resize(nsink);
    }
    auto make_handler = [&](int w) {
      return [&, w](const ColumnBatch& b) {
        BatchScratch& js = scratch[w];
        base_out[w] += b.count;
        size_t cur = static_cast<size_t>(b.count);
        // Null prow = every batch row in order (a compact batch).
        const uint32_t* prow = b.sel;
        if (nsteps > 0) {
          js.prow.resize(cur);
          for (size_t i = 0; i < cur; ++i) {
            js.prow[i] = prow != nullptr ? prow[i] : static_cast<uint32_t>(i);
          }
        }
        for (size_t s = 0; s < nsteps && cur > 0; ++s) {
          const FlatJoinMap& map = joins[s].hash.map;
          const int64_t* keycol = b.cols[key_ci[s]];
          js.keys.resize(cur);
          for (size_t i = 0; i < cur; ++i) js.keys[i] = keycol[js.prow[i]];
          js.hashes.resize(cur);
          map.ComputeHashes(js.keys.data(), cur, js.hashes.data());
          js.slots.resize(cur);
          map.FindSlots(js.keys.data(), js.hashes.data(), cur,
                        js.slots.data());
          js.mp.clear();
          js.mb.clear();
          const size_t nm =
              map.ExpandMatches(js.slots.data(), cur, &js.mp, &js.mb);
          join_in[s][w] += cur;
          join_out[s][w] += nm;
          QueryMetrics* jm = OpM(opx.join[s]);
          jm->join_batch_probes += cur;
          jm->join_matches += nm;
          // Remap the carried selection (and earlier steps' build rows)
          // through this step's match vector.
          js.remap.resize(nm);
          for (size_t j = 0; j < nm; ++j) js.remap[j] = js.prow[js.mp[j]];
          js.prow.swap(js.remap);
          for (size_t t = 0; t < s; ++t) {
            js.remap.resize(nm);
            for (size_t j = 0; j < nm; ++j) {
              js.remap[j] = js.brows[t][js.mp[j]];
            }
            js.brows[t].swap(js.remap);
          }
          js.brows[s].assign(js.mb.begin(), js.mb.end());
          cur = nm;
        }
        if (cur == 0) return true;
        if (nsteps > 0) prow = js.prow.data();
        // Under a LIMIT without ORDER BY the sink takes only a prefix:
        // read (and lock) just that prefix, as row mode stops at the
        // LIMIT row.
        cur = std::min<uint64_t>(cur, sink->Remaining());
        if (cur == 0) return false;
        if (txn_row_reads) {
          for (size_t j = 0; j < cur; ++j) {
            const uint32_t pi =
                prow != nullptr ? prow[j] : static_cast<uint32_t>(j);
            if (!ReadRow(b.locators != nullptr ? b.locators[pi] : -1)) {
              return false;
            }
          }
        }
        for (size_t k = 0; k < nsink; ++k) {
          std::vector<int64_t>& g = js.gathered[k];
          if (src_step[k] < 0) {
            const int64_t* src = b.cols[src_ci[k]];
            if (prow == nullptr) {
              js.in[k] = src;
              continue;
            }
            g.resize(cur);
            for (size_t j = 0; j < cur; ++j) g[j] = src[prow[j]];
          } else {
            const HashDim& hd = joins[src_step[k]].hash;
            const int64_t* src = hd.rows.data() + sink_refs[k].col;
            const uint32_t* br = js.brows[src_step[k]].data();
            g.resize(cur);
            for (size_t j = 0; j < cur; ++j) {
              g[j] = src[static_cast<size_t>(br[j]) * hd.stride];
            }
          }
          js.in[k] = g.data();
        }
        return sink->Update(w, cur, js.in.data());
      };
    };
    scan_status =
        DriveCsi(scan, nworkers, ScanM(), ops[opx.scan].name, make_handler);
  } else {
    scan_status = ScanTable(
        0, plan.base, base_preds, nworkers, ScanM(), ops[opx.scan].name,
        [&](int w, int64_t rid, const int64_t* row) {
          int64_t* wide = wide_bufs[w].data();
          std::copy(row, row + base->num_columns(), wide);
          base_out[w]++;
          return pipeline(w, wide, rid, 0);
        });
  }
  HD_RETURN_IF_ERROR(scan_status);
  // Errors recorded inside scan callbacks (lock timeouts, fetch I/O, NL
  // probes) stopped the scan via `return false`; surface them now.
  HD_RETURN_IF_ERROR(TakeSideError());
  // Every table read is done: merge, sort and decode run unlatched.
  latches.clear();

  auto fold = [](const std::vector<uint64_t>& v) {
    uint64_t t = 0;
    for (uint64_t c : v) t += c;
    return t;
  };
  if (!plan.base.is_csi()) {
    // Row-mode probe overhead, charged per join step from its inflow.
    const double rate = nworkers > 1 ? ctx.parallel_row_overhead_ns
                                     : ctx.serial_row_overhead_ns;
    for (size_t s = 0; s < nsteps; ++s) {
      if (static_cast<int>(s) == driving_step) continue;
      if (joins[s].method != JoinStep::Method::kHash) continue;
      OpM(opx.join[s])->cpu_ns +=
          static_cast<uint64_t>(fold(join_in[s]) * rate);
    }
  }

  // ---- Finish: merge worker states, spill, sort, decode. ----
  // Finish-phase charges (merge cpu, spill io, peak memory) land on the
  // root-side operator that does the work: Agg, else Sort, else Project.
  QueryMetrics* fm = !aggs.empty() ? OpM(opx.agg)
                     : (plan.explicit_sort && !q.order_by.empty())
                         ? OpM(opx.sort)
                         : OpM(opx.output);
  Timer tfin;
  HD_RETURN_IF_ERROR(sink->Finish(&res, fm));
  fm->cpu_ns += static_cast<uint64_t>(tfin.ElapsedMs() * 1e6);

  // Fold the per-worker row-flow counters into the operator profiles.
  // Rows answered by encoded-domain pushdown flow scan→agg logically too.
  const uint64_t pushed = fold(pushed_rows);
  if (opx.scan >= 0) ops[opx.scan].rows_out = fold(base_out) + pushed;
  for (size_t s = 0; s < nsteps; ++s) {
    if (static_cast<int>(s) == driving_step) continue;  // set above
    ops[opx.join[s]].rows_in = fold(join_in[s]);
    ops[opx.join[s]].rows_out = fold(join_out[s]);
  }
  // The sink's input enters Agg, Project and a Sort before Project; a
  // Sort after Agg takes the groups. Every root-side node returns the
  // result.
  const uint64_t into_sink = sink->rows_in() + pushed;
  for (int i : {opx.agg, opx.sort, opx.output}) {
    if (i >= 0) ops[i].rows_out = res.row_count;
  }
  if (opx.agg >= 0) ops[opx.agg].rows_in = into_sink;
  if (opx.sort >= 0) {
    ops[opx.sort].rows_in = opx.agg >= 0 ? res.row_count : into_sink;
  }
  if (opx.output >= 0) ops[opx.output].rows_in = into_sink;
  return Status::OK();
}

// ---------------------------------------------------------------------
// DML execution.
// ---------------------------------------------------------------------

Status Executor::Impl::RunDml(std::unique_lock<FairSharedMutex>* latch) {
  // Mutation work is attributed to the DML root node; the qualifying scan
  // charges flow through ScanTable to the scan node.
  QueryMetrics* m = OpM(opx.output);
  // Log under the enclosing transaction's WAL id, or an implicit one the
  // statement commits itself (after the latch — see Execute).
  if (base->wal() != nullptr) {
    if (ctx.txn != nullptr) {
      wal_txn = ctx.txn->wal_id();
    } else {
      wal_txn = base->wal()->AllocTxnId();
      wal_autocommit = true;
    }
  }
  auto mark_wal_write = [&] {
    if (base->wal() == nullptr) return;
    wal_wrote = true;
    if (ctx.txn != nullptr) ctx.txn->MarkWalWrite();
  };
  const bool locking = ctx.txn != nullptr && ctx.txns != nullptr;
  bool relatched = false;
  if (q.kind == Query::Kind::kInsert) {
    // The table intent lock comes first, before any row is inserted; an
    // insert reads nothing a relatch could invalidate.
    if (locking) {
      HD_RETURN_IF_ERROR(LockUnderLatch(latch, LockResource{table_hash},
                                        LockMode::kIX, &relatched));
    }
    for (const auto& vr : q.insert_rows) {
      PackedRow p = base->PackRow(vr);
      int64_t rid = -1;
      mark_wal_write();  // even a failed insert logs its compensation
      HD_RETURN_IF_ERROR(base->InsertPacked(p, m, &rid, wal_txn));
      if (locking) {
        // Noted before the lock, whose wait may drop the latch: an SI
        // reader that latches the table meanwhile finds the version.
        ctx.txns->NoteVersion(table_hash, rid, ctx.txn);
        HD_RETURN_IF_ERROR(LockUnderLatch(latch, LockResource{table_hash, rid},
                                          LockMode::kX, &relatched));
      }
      ++res.affected_rows;
    }
    if (opx.output >= 0) {
      ops[opx.output].rows_in = q.insert_rows.size();
      ops[opx.output].rows_out = res.affected_rows;
    }
    return Status::OK();
  }

  // UPDATE / DELETE: collect qualifying rows (TOP N), lock them, then
  // mutate. A lock that had to be waited for released the latch, so the
  // rows are collected again under the new latch hold; the locks already
  // taken are kept and granted again at once.
  const int64_t topn = q.limit >= 0 ? q.limit : INT64_MAX;
  std::vector<RowRef> refs;
  Timer t;
  do {
    if (relatched) HD_RETURN_IF_ERROR(PinViews());
    relatched = false;
    refs.clear();
    Status s = ScanTable(
        0, plan.base, base_preds, 1, ScanM(), ops[opx.scan].name,
        [&](int, int64_t rid, const int64_t* row) {
          RowRef r;
          r.rid = rid;
          r.row.assign(row, row + base->num_columns());
          refs.push_back(std::move(r));
          return static_cast<int64_t>(refs.size()) < topn;
        });
    HD_RETURN_IF_ERROR(s);
    HD_RETURN_IF_ERROR(TakeSideError());
    if (!locking || refs.empty()) break;
    HD_RETURN_IF_ERROR(LockUnderLatch(latch, LockResource{table_hash},
                                      LockMode::kIX, &relatched));
    for (size_t i = 0; i < refs.size() && !relatched; ++i) {
      HD_RETURN_IF_ERROR(LockUnderLatch(latch,
                                        LockResource{table_hash, refs[i].rid},
                                        LockMode::kX, &relatched));
    }
  } while (relatched);
  m->cpu_ns += static_cast<uint64_t>(t.ElapsedMs() * 1e6);
  if (opx.scan >= 0) ops[opx.scan].rows_out = refs.size();
  if (opx.output >= 0) ops[opx.output].rows_in = refs.size();

  Timer t2;
  if (!refs.empty()) mark_wal_write();
  if (q.kind == Query::Kind::kDelete) {
    HD_RETURN_IF_ERROR(base->DeleteRows(refs, m, wal_txn));
  } else {
    std::vector<PackedRow> news;
    news.reserve(refs.size());
    for (const auto& r : refs) {
      PackedRow nr = r.row;
      for (const auto& set : q.sets) {
        if (set.is_add) {
          const ValueType vt = base->schema().column(set.col).type;
          if (vt == ValueType::kDouble) {
            nr[set.col] = PackDouble(UnpackDouble(nr[set.col]) + set.add_delta);
          } else {
            nr[set.col] += static_cast<int64_t>(set.add_delta);
          }
        } else {
          nr[set.col] = base->PackValue(set.col, set.set_value);
        }
      }
      news.push_back(std::move(nr));
    }
    HD_RETURN_IF_ERROR(base->UpdateRows(refs, news, m, wal_txn));
  }
  m->cpu_ns += static_cast<uint64_t>(t2.ElapsedMs() * 1e6);

  if (ctx.txn != nullptr && ctx.txns != nullptr) {
    for (const auto& r : refs) ctx.txns->NoteVersion(table_hash, r.rid, ctx.txn);
  }
  res.affected_rows = refs.size();
  if (opx.output >= 0) ops[opx.output].rows_out = res.affected_rows;
  return Status::OK();
}

namespace {

const char* KindName(Query::Kind k) {
  switch (k) {
    case Query::Kind::kSelect: return "select";
    case Query::Kind::kUpdate: return "update";
    case Query::Kind::kDelete: return "delete";
    case Query::Kind::kInsert: return "insert";
  }
  return "unknown";
}

// Finalize one statement into the query store (ExecContext::capture
// identity + the rolled-up result). Best-effort by contract: the store
// itself evaluates the `querystore.record` failpoint and drops poisoned
// writes, so this can never change the statement's outcome.
void CaptureRecord(const ExecContext& ctx, const Query& q,
                   const QueryResult& res, double wall_ms) {
  if (ctx.query_store == nullptr) return;
  QueryRecord rec;
  rec.session_id = ctx.capture.session_id;
  rec.trace_id = ctx.capture.trace_id;
  rec.fingerprint = ctx.capture.fingerprint;
  rec.sql = ctx.capture.sql.empty() ? q.id : ctx.capture.sql;
  rec.norm = ctx.capture.norm;
  rec.plan = res.plan_desc;
  rec.kind = KindName(q.kind);
  rec.code = res.status.code();
  if (!res.status.ok()) rec.error = res.status.message();
  rec.latency_ms = wall_ms;
  rec.queue_ms = res.queue_ms;
  rec.rows_out = res.row_count > 0 ? res.row_count : res.affected_rows;
  rec.metrics = res.metrics;
  ctx.query_store->Record(std::move(rec));
}

}  // namespace

QueryResult Executor::Execute(const Query& q, const PhysicalPlan& plan) {
  const auto stmt_t0 = std::chrono::steady_clock::now();
  const auto wall_ms_since = [&stmt_t0] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - stmt_t0)
        .count();
  };
  Impl impl(ctx_, q, plan);
  impl.res.trace_id = ctx_.capture.trace_id;
  // Admission gate: non-transactional SELECTs acquire a slot before any
  // latch or lock (a queued query holds nothing). Statements inside a
  // transaction bypass the gate — stalling a lock holder in the admission
  // queue would invite deadlocks the lock manager cannot see.
  // A shed statement runs nothing but is still captured: a store that
  // hides admission rejections would under-report exactly the overload
  // the advisor most needs to see.
  AdmissionController::Ticket ticket;
  Status s;
  if (ctx_.admission != nullptr && q.kind == Query::Kind::kSelect &&
      ctx_.txn == nullptr) {
    const bool tracing = Trace::Enabled();
    const uint64_t tr0 = tracing ? Trace::Global().NowUs() : 0;
    s = ctx_.admission->Admit(ctx_.memory_grant_bytes, &ticket);
    impl.res.queue_ms = wall_ms_since();
    if (tracing) {
      Trace::Global().Record("AdmissionWait", 0, tr0,
                             Trace::Global().NowUs() - tr0, 0,
                             ctx_.capture.trace_id, "admission");
    }
  }
  if (s.ok()) s = impl.Setup();
  if (s.ok()) {
    // Physical latches: shared for reads, held per table only while the
    // statement reads that table (LatchAndPin, DoneReading); exclusive on
    // the base for the whole of a DML statement.
    if (q.kind == Query::Kind::kSelect) {
      // The table lock is taken before any latch, so its wait never holds
      // one (LockUnderLatch does the same for DML).
      s = impl.AcquireReadLocks();
      if (s.ok()) s = impl.LatchAndPin();
      if (s.ok()) s = impl.RunSelect();
      impl.latches.clear();
    } else {
      {
        std::unique_lock<FairSharedMutex> latch(impl.base->phys_latch());
        s = impl.PinViews();
        if (s.ok()) s = impl.RunDml(&latch);
      }
      // Autocommit durability point, deliberately outside the exclusive
      // latch: in group mode this parks for the batch fsync, and nothing
      // should hold the table hostage while it waits. A commit error means
      // durability is unknown — the statement is reported failed and must
      // not be retried (see TransactionManager::Commit).
      if (impl.wal_autocommit && impl.wal_wrote) {
        WalManager* wal = impl.base->wal();
        if (s.ok()) {
          const bool tracing = Trace::Enabled();
          const uint64_t tr0 = tracing ? Trace::Global().NowUs() : 0;
          Status cs = wal->Commit(impl.wal_txn);
          if (tracing) {
            Trace::Global().Record("WalCommit", 0, tr0,
                                   Trace::Global().NowUs() - tr0, 0,
                                   ctx_.capture.trace_id, "wal");
          }
          if (!cs.ok()) s = std::move(cs);
        } else {
          wal->Abort(impl.wal_txn);
        }
      }
    }
  }
  impl.res.status = s;
  // Roll per-operator blocks up into the query totals. res.metrics already
  // holds the residual (locks, version probes) charged at query level, so
  // after the merge it is: sum over operators + residual.
  for (const auto& op : impl.ops) impl.res.metrics.Merge(op.metrics);
  impl.res.operators = std::move(impl.ops);
  impl.res.plan_desc = plan.Describe(impl.res.metrics.dop);
  {
    const QueryMetrics& qm = impl.res.metrics;
    if (qm.join_batch_probes.load() > 0) {
      SStats().join_batch_probes->Add(qm.join_batch_probes.load());
      SStats().join_matches->Add(qm.join_matches.load());
    }
    if (qm.join_bloom_checks.load() > 0) {
      SStats().join_bloom_checks->Add(qm.join_bloom_checks.load());
      SStats().join_bloom_filtered->Add(qm.join_bloom_filtered.load());
    }
  }
  if (!s.ok()) SStats().errors->Add(1);
  SStats().ForKind(q.kind)->Record(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - stmt_t0)
          .count());
  // Workload capture happens here — after the rollup, so the record
  // carries the exact-sum query totals — and never affects `res`.
  CaptureRecord(ctx_, q, impl.res, wall_ms_since());
  return std::move(impl.res);
}

}  // namespace hd
