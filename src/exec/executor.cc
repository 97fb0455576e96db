#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <numeric>
#include <queue>
#include <shared_mutex>
#include <unordered_map>

#include "common/bloom.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/admission.h"
#include "exec/agg_hash.h"
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
  const SecondaryIndex* si = nullptr;
  if (!path.index_name.empty()) {
    si = t.FindSecondary(path.index_name);
    if (si == nullptr) return Status::NotFound("index " + path.index_name);
  }
  const std::string what = si != nullptr ? "index " + path.index_name
                                         : "primary of " + t.name();
  if (path.is_csi()) {
    out->csi = si != nullptr ? si->csi.get() : t.primary_csi();
    return out->csi != nullptr ? Status::OK()
                               : Status::NotFound("columnstore " + what);
  }
  if (si != nullptr) {
    out->tree = si->btree.get();
    out->key_cols = si->def.key_cols;
    out->payload_cols = si->payload_cols;
  } else {
    // A clustered B+ tree's payload is the whole row.
    out->tree = t.primary_btree();
    out->key_cols = t.primary_key_cols();
    out->payload_cols.resize(t.num_columns());
    std::iota(out->payload_cols.begin(), out->payload_cols.end(), 0);
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

// ---------------------------------------------------------------------
// Scalar expressions over the wide packed row, double domain.
// ---------------------------------------------------------------------

double DecodeNumeric(int64_t packed, ValueType t) {
  return t == ValueType::kDouble ? UnpackDouble(packed)
                                 : static_cast<double>(packed);
}

double EvalExpr(const Expr& e, const Layout& L, const int64_t* wide) {
  switch (e.kind) {
    case Expr::Kind::kConst:
      return e.constant;
    case Expr::Kind::kCol:
      return DecodeNumeric(wide[L.SlotOf(e.col)], L.TypeOf(e.col));
    case Expr::Kind::kAdd:
      return EvalExpr(e.children[0], L, wide) + EvalExpr(e.children[1], L, wide);
    case Expr::Kind::kSub:
      return EvalExpr(e.children[0], L, wide) - EvalExpr(e.children[1], L, wide);
    case Expr::Kind::kMul:
      return EvalExpr(e.children[0], L, wide) * EvalExpr(e.children[1], L, wide);
  }
  return 0;
}

/// Evaluate an expression against a ColumnBatch (base table only).
double EvalExprBatch(const Expr& e, const Layout& L,
                     const std::vector<const int64_t*>& cols,
                     const std::vector<int>& slot_of_col, int i) {
  switch (e.kind) {
    case Expr::Kind::kConst:
      return e.constant;
    case Expr::Kind::kCol: {
      assert(e.col.table == 0);
      const int ci = slot_of_col[e.col.col];
      assert(ci >= 0);
      return DecodeNumeric(cols[ci][i], L.TypeOf(e.col));
    }
    case Expr::Kind::kAdd:
      return EvalExprBatch(e.children[0], L, cols, slot_of_col, i) +
             EvalExprBatch(e.children[1], L, cols, slot_of_col, i);
    case Expr::Kind::kSub:
      return EvalExprBatch(e.children[0], L, cols, slot_of_col, i) -
             EvalExprBatch(e.children[1], L, cols, slot_of_col, i);
    case Expr::Kind::kMul:
      return EvalExprBatch(e.children[0], L, cols, slot_of_col, i) *
             EvalExprBatch(e.children[1], L, cols, slot_of_col, i);
  }
  return 0;
}

void CollectExprCols(const Expr& e, std::vector<ColRef>* out) {
  if (e.kind == Expr::Kind::kCol) out->push_back(e.col);
  for (const auto& c : e.children) CollectExprCols(c, out);
}

// ---------------------------------------------------------------------
// Aggregation state.
// ---------------------------------------------------------------------

struct AggDesc {
  AggSpec::Fn fn;
  bool has_arg = false;
  Expr arg;
  /// Fast path: arg is exactly one column (min/max track packed values,
  /// integer sums stay exact in int64).
  bool arg_is_col = false;
  ColRef arg_col;
  bool arg_is_int = false;  // integer-typed single column
};

// AggState lives in exec/agg_hash.h: the flat aggregate hash table stores
// them contiguously per group.

void AggUpdate(const AggDesc& a, AggState* s, const Layout& L,
               const int64_t* wide) {
  switch (a.fn) {
    case AggSpec::Fn::kCount:
      ++s->count;
      return;
    case AggSpec::Fn::kSum:
    case AggSpec::Fn::kAvg: {
      ++s->count;
      if (a.arg_is_col && a.arg_is_int) {
        s->i += wide[L.SlotOf(a.arg_col)];
      } else {
        s->d += EvalExpr(a.arg, L, wide);
      }
      return;
    }
    case AggSpec::Fn::kMin:
    case AggSpec::Fn::kMax: {
      if (a.arg_is_col) {
        const int64_t v = wide[L.SlotOf(a.arg_col)];
        if (!s->has || (a.fn == AggSpec::Fn::kMin ? v < s->packed_minmax
                                                  : v > s->packed_minmax)) {
          s->packed_minmax = v;
        }
      } else {
        const double v = EvalExpr(a.arg, L, wide);
        if (!s->has || (a.fn == AggSpec::Fn::kMin ? v < s->d : v > s->d)) {
          s->d = v;
        }
      }
      s->has = true;
      return;
    }
  }
}

void AggMerge(const AggDesc& a, AggState* into, const AggState& from) {
  switch (a.fn) {
    case AggSpec::Fn::kCount:
      into->count += from.count;
      return;
    case AggSpec::Fn::kSum:
    case AggSpec::Fn::kAvg:
      into->count += from.count;
      into->i += from.i;
      into->d += from.d;
      return;
    case AggSpec::Fn::kMin:
    case AggSpec::Fn::kMax:
      if (!from.has) return;
      if (!into->has) {
        *into = from;
        return;
      }
      if (a.arg_is_col) {
        if (a.fn == AggSpec::Fn::kMin
                ? from.packed_minmax < into->packed_minmax
                : from.packed_minmax > into->packed_minmax) {
          into->packed_minmax = from.packed_minmax;
        }
      } else {
        if (a.fn == AggSpec::Fn::kMin ? from.d < into->d : from.d > into->d) {
          into->d = from.d;
        }
      }
      return;
  }
}

Value AggFinal(const AggDesc& a, const AggState& s, const Layout& L) {
  switch (a.fn) {
    case AggSpec::Fn::kCount:
      return Value::Int64(static_cast<int64_t>(s.count));
    case AggSpec::Fn::kSum:
      if (a.arg_is_col && a.arg_is_int) return Value::Int64(s.i);
      return Value::Double(s.d);
    case AggSpec::Fn::kAvg: {
      const double total =
          (a.arg_is_col && a.arg_is_int) ? static_cast<double>(s.i) : s.d;
      return Value::Double(s.count ? total / s.count : 0.0);
    }
    case AggSpec::Fn::kMin:
    case AggSpec::Fn::kMax:
      if (!s.has) return Value::Null();
      if (a.arg_is_col) {
        return L.tables[a.arg_col.table]->UnpackValue(a.arg_col.col,
                                                      s.packed_minmax);
      }
      return Value::Double(s.d);
  }
  return Value::Null();
}

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
  std::vector<std::pair<int64_t, uint32_t>> build_pairs;
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
  std::vector<int> group_slots;
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

  Impl(const ExecContext& c, const Query& qq, const PhysicalPlan& p)
      : ctx(c), q(qq), plan(p) {}

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
  Status RunDml();

  /// Columns of layout table `ti` read downstream of its scan: aggregate
  /// arguments, GROUP BY, ORDER BY, the select list and join columns. DML
  /// and SELECT * read every base column. Predicate columns are left out:
  /// each access path evaluates its own predicates.
  std::vector<int> ColumnsRead(int ti) const;

  /// One columnstore scan: what to decode, what the scan filters, and an
  /// optional hook that answers row group `g` without decoding it
  /// (encoded-domain aggregate pushdown; returns false to fall back).
  struct CsiScan {
    const ColumnStoreIndex* csi = nullptr;
    std::vector<int> cols;
    std::vector<SegPredicate> preds;
    bool need_locators = false;
    bool shared = false;  // attach to the cooperative shared-scan pass
    std::vector<ScanKeyFilter> key_filters;
    std::function<bool(int worker, int g,
                       const std::unordered_set<int64_t>& dead,
                       QueryMetrics* wm)>
        pushdown;
  };
  CsiScan MakeCsiScan(int ti, const ColumnStoreIndex* csi,
                      const std::vector<BoundPred>& preds);

  /// The columnstore driver: runs `s` over its row groups and delta store
  /// as a shared pass, serially, or as morsels over `nworkers`, with one
  /// delete-buffer snapshot. `make_handler(worker)` returns the batch
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
  Status LockRowX(int64_t rid);
  void PayVersionCost(int64_t rid);
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
  for (const auto& g : q.group_by) group_slots.push_back(L.SlotOf(g));

  // Locking policy.
  if (ctx.txn != nullptr && ctx.txns != nullptr) {
    if (q.is_read_only()) {
      if (ctx.txn->isolation() != IsolationLevel::kSnapshot) {
        use_table_lock = plan.est_base_rows > ctx.table_lock_threshold;
        row_read_locks = !use_table_lock;
      }
    }
  }

  ops = BuildOperatorSkeleton(q, plan, &opx);
  return Status::OK();
}

std::vector<int> Executor::Impl::ColumnsRead(int ti) const {
  const bool all = ti == 0 && (q.kind != Query::Kind::kSelect ||
                               (q.aggs.empty() && q.select_cols.empty()));
  std::vector<char> need(L.tables[ti]->num_columns(), all ? 1 : 0);
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
    if (r.table == ti) need[r.col] = 1;
  }
  std::vector<int> out;
  for (size_t c = 0; c < need.size(); ++c) {
    if (need[c]) out.push_back(static_cast<int>(c));
  }
  return out;
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
        rp.csi != nullptr && rp.csi->num_row_groups() > 1 ? dop() : 1;
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
    for (BuildPart& pt : parts) {
      const uint32_t off = static_cast<uint32_t>(hd.rows.size() / stride);
      if (off == 0) {  // the first non-empty partition moves in
        hd.rows = std::move(pt.rows);
        hd.build_pairs = std::move(pt.pairs);
        continue;
      }
      hd.rows.insert(hd.rows.end(), pt.rows.begin(), pt.rows.end());
      for (const auto& [k, v] : pt.pairs) hd.build_pairs.emplace_back(k, v + off);
    }
    hd.map.Build(hd.build_pairs);
    // Build the pushdown Bloom filter from the build keys before they
    // are discarded; an empty build side leaves the filter all-zero
    // (MayContain always false), which is exactly the join's semantics.
    hd.bloom.Init(hd.build_pairs.size());
    for (const auto& [k, v] : hd.build_pairs) {
      (void)v;
      hd.bloom.Insert(k);
    }
    hd.build_pairs.clear();
    hd.build_pairs.shrink_to_fit();
    m->cpu_ns += static_cast<uint64_t>(tbuild.ElapsedMs() * 1e6);
    joins.push_back(std::move(je));
  }
  return Status::OK();
}

Status Executor::Impl::AcquireReadLocks() {
  if (!use_table_lock) return Status::OK();
  return ctx.txns->locks()->Acquire(ctx.txn->id(),
                                    LockResource{table_hash},
                                    LockMode::kS, ctx.lock_timeout_ms,
                                    ctx.txn->age());
}

Status Executor::Impl::LockRowX(int64_t rid) {
  HD_RETURN_IF_ERROR(ctx.txns->locks()->Acquire(
      ctx.txn->id(), LockResource{table_hash}, LockMode::kIX,
      ctx.lock_timeout_ms, ctx.txn->age()));
  return ctx.txns->locks()->Acquire(ctx.txn->id(),
                                    LockResource{table_hash, rid},
                                    LockMode::kX, ctx.lock_timeout_ms,
                                    ctx.txn->age());
}

void Executor::Impl::PayVersionCost(int64_t rid) {
  if (ctx.txn == nullptr || ctx.txns == nullptr) return;
  if (ctx.txn->isolation() != IsolationLevel::kSnapshot) return;
  // SI readers traverse the version chain for recently-updated rows.
  (void)ctx.txns->VersionChainLength(table_hash, rid, ctx.txn->snapshot_ts());
}

// ---------------------------------------------------------------------
// Table scans: every heap, B+ tree and columnstore scan runs here.
// ---------------------------------------------------------------------

Executor::Impl::CsiScan Executor::Impl::MakeCsiScan(
    int ti, const ColumnStoreIndex* csi, const std::vector<BoundPred>& preds) {
  CsiScan s;
  s.csi = csi;
  s.cols = ColumnsRead(ti);
  s.preds = ToSegPreds(preds);
  if (ti != 0) return s;
  // Locators (row ids) are only needed when a transaction wants per-row
  // locks/versions or DML collects row references.
  s.need_locators = ctx.txn != nullptr || q.kind != Query::Kind::kSelect;
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
  const ColumnStoreIndex* csi = s.csi;
  const std::vector<ScanKeyFilter>* kfp =
      s.key_filters.empty() ? nullptr : &s.key_filters;
  // The shared pass snapshots deletes itself; private scans take one
  // snapshot shared by all their row groups.
  std::unordered_set<int64_t> dead;
  if (!s.shared) HD_RETURN_IF_ERROR(csi->SnapshotDeleteBuffer(&dead, m));
  const int ngroups = csi->num_row_groups();
  std::atomic<bool> stop{false};
  auto stopping = [&stop](BatchFn inner) -> BatchFn {
    return [&stop, inner = std::move(inner)](const ColumnBatch& b) {
      if (inner(b)) return true;
      stop.store(true, std::memory_order_relaxed);
      return false;
    };
  };
  // Row groups [gb, ge) for worker w; gb < 0 selects the delta store
  // (row-mode, cheap, never shared).
  auto scan = [&](int w, int gb, int ge, QueryMetrics* wm) -> Status {
    if (stop.load(std::memory_order_relaxed)) return Status::OK();
    const BatchFn fn = stopping(make_handler(w));
    if (gb < 0) {
      return csi->ScanDelta(s.cols, s.preds, fn, wm, s.need_locators, kfp);
    }
    if (!s.pushdown) {
      return csi->ScanGroups(gb, ge, s.cols, s.preds, fn, wm, s.need_locators,
                             &dead, kfp);
    }
    for (int g = gb; g < ge; ++g) {
      if (s.pushdown(w, g, dead, wm)) continue;
      HD_RETURN_IF_ERROR(csi->ScanGroups(g, g + 1, s.cols, s.preds, fn, wm,
                                         s.need_locators, &dead, kfp));
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
  Status st = s.shared ? ctx.scan_scheduler->Scan(csi, s.cols, s.preds,
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
      const CsiScan s = MakeCsiScan(ti, rp.csi, preds);
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

/// Worker-local sink: either aggregation or row collection.
struct WorkerSink {
  // Aggregation: flat open-addressing group table (inline keys,
  // contiguous AggState payload, one hash per probe).
  AggHashTable table;
  std::vector<AggState> global;  // no GROUP BY
  // Spill partitions for grace hash agg: flat rows of
  // [group slots..., per-agg raw input (bit-cast double or int)].
  std::vector<std::vector<int64_t>> spill_parts;
  uint64_t spill_bytes = 0;
  bool spilling = false;

  // Collection (projection / sort input): flat packed rows.
  std::vector<int64_t> rows;
  uint64_t row_count = 0;

  // Reusable per-batch scratch (no heap allocation per input row):
  // row-major gathered group keys, their hashes, and resolved group
  // indices (kSpilledRow = routed to a spill partition); srow_buf caches
  // each row's payload state pointer across the per-aggregate loops.
  std::vector<int64_t> key_buf;
  std::vector<uint64_t> hash_buf;
  std::vector<uint32_t> gidx_buf;
  std::vector<AggState*> srow_buf;
};

constexpr uint32_t kSpilledRow = UINT32_MAX;

}  // namespace

Status Executor::Impl::RunSelect() {
  QueryMetrics* m = &res.metrics;

  HD_RETURN_IF_ERROR(AcquireReadLocks());

  HD_RETURN_IF_ERROR(PrepareJoins());

  const bool has_aggs = !aggs.empty();
  const bool stream_agg = plan.agg == AggMethod::kStream;

  // Shared-scan routing. A non-transactional single-table SELECT over a
  // CSI attaches to the cooperative pass when a scheduler is configured —
  // UNLESS the query is structurally answerable by encoded-domain
  // aggregate pushdown (every non-COUNT aggregate's predicates sit on its
  // own column): those queries decode nothing, so sharing a decode would
  // only cost them. Stream aggregation and scan-provided ordering need
  // ascending row order, which the circular pass does not give.
  auto structurally_pushable = [&]() {
    if (aggs.empty() || !group_slots.empty()) return false;
    for (const auto& a : aggs) {
      int col = -1;
      if (a.fn == AggSpec::Fn::kCount && !a.has_arg) continue;
      if ((a.fn == AggSpec::Fn::kSum || a.fn == AggSpec::Fn::kAvg) &&
          a.arg_is_col && a.arg_is_int && a.arg_col.table == 0) {
        col = a.arg_col.col;
      } else if ((a.fn == AggSpec::Fn::kMin || a.fn == AggSpec::Fn::kMax) &&
                 a.arg_is_col && a.arg_col.table == 0) {
        col = a.arg_col.col;
      } else {
        return false;
      }
      for (const auto& p : base_preds) {
        if (p.col != col) return false;
      }
    }
    return true;
  };
  use_shared_scan = ctx.scan_scheduler != nullptr && ctx.txn == nullptr &&
                    plan.base.is_csi() && joins.empty() &&
                    plan.driving_join < 0 && !stream_agg &&
                    (q.order_by.empty() || plan.explicit_sort) &&
                    !structurally_pushable();
  // The shared pass is consumed by this thread alone: concurrency comes
  // from the other queries attached to the same pass, not from morsels.
  const int nworkers = use_shared_scan ? 1 : dop();
  m->dop = nworkers;

  // Output projection slots when not aggregating.
  std::vector<int> proj_slots;
  std::vector<ColRef> proj_refs = q.select_cols;
  if (!has_aggs) {
    if (proj_refs.empty()) {
      for (int c = 0; c < base->num_columns(); ++c) {
        proj_refs.push_back(ColRef{0, c});
      }
    }
    // Sort keys must ride along; remember where they live in the projected
    // row.
    for (const auto& o : q.order_by) {
      if (std::find(proj_refs.begin(), proj_refs.end(), o) == proj_refs.end()) {
        proj_refs.push_back(o);
      }
    }
    for (const auto& r : proj_refs) proj_slots.push_back(L.SlotOf(r));
  }
  std::vector<int> sort_pos;  // positions of order_by cols in projected row
  for (const auto& o : q.order_by) {
    for (size_t i = 0; i < proj_refs.size(); ++i) {
      if (proj_refs[i] == o) {
        sort_pos.push_back(static_cast<int>(i));
        break;
      }
    }
  }

  const uint64_t grant = ctx.memory_grant_bytes;
  constexpr int kSpillParts = 16;

  std::vector<WorkerSink> sinks(nworkers);
  for (auto& s : sinks) {
    if (has_aggs) {
      s.global.assign(aggs.size(), AggState{});
      s.spill_parts.resize(kSpillParts);
      s.table.Init(group_slots.size(), aggs.size());
    }
  }

  // Streaming aggregate state (serial only).
  std::vector<int64_t> stream_key;
  std::vector<AggState> stream_state(aggs.size());
  bool stream_has = false;
  std::vector<Row> stream_out;
  auto stream_flush = [&]() {
    if (!stream_has) return;
    Row r;
    for (size_t gi = 0; gi < group_slots.size(); ++gi) {
      const ColRef& g = q.group_by[gi];
      r.push_back(L.tables[g.table]->UnpackValue(g.col, stream_key[gi]));
    }
    for (size_t ai = 0; ai < aggs.size(); ++ai) {
      r.push_back(AggFinal(aggs[ai], stream_state[ai], L));
    }
    stream_out.push_back(std::move(r));
    stream_state.assign(aggs.size(), AggState{});
  };

  // Per-group approximate bytes for grant accounting, and the resulting
  // per-worker group cap: FindOrInsert refuses the insert past it and the
  // row grace-spills to a partition (hash reused for the routing).
  const uint64_t group_entry_bytes =
      48 + group_slots.size() * 8 + aggs.size() * sizeof(AggState);
  const size_t max_groups =
      grant > 0 ? static_cast<size_t>((grant / nworkers) / group_entry_bytes)
                : static_cast<size_t>(-1);

  // Encoded-domain aggregate pushdown (fast single-table global
  // aggregates): per-worker partial states folded in the finish phase.
  // Empty pspecs = pushdown not applicable to this query. pushed_rows
  // counts rows the pushdown logically aggregated per worker — they flow
  // scan→agg in the operator profiles even though no batch materialized.
  std::vector<PushAggSpec> pspecs;
  std::vector<std::vector<PushAggState>> pacc;
  std::vector<uint64_t> pushed_rows;

  std::atomic<int64_t> emitted{0};
  const int64_t limit =
      (q.limit >= 0 && !has_aggs && q.order_by.empty()) ? q.limit : -1;

  // Per-worker row-flow counters, folded into the operator profiles after
  // the scan (plain uint64 per worker: no hot-path atomics).
  const size_t nsteps = plan.joins.size();
  std::vector<uint64_t> base_out(nworkers, 0);
  std::vector<std::vector<uint64_t>> join_in(nsteps,
                                             std::vector<uint64_t>(nworkers, 0));
  std::vector<std::vector<uint64_t>> join_out(
      nsteps, std::vector<uint64_t>(nworkers, 0));
  std::vector<uint64_t> sink_in(nworkers, 0);

  // The per-row consumer running after joins.
  auto consume = [&](int w, const int64_t* wide, int64_t rid) -> bool {
    sink_in[w]++;
    PayVersionCost(rid);
    if (row_read_locks) {
      Status s = ctx.txns->locks()->Acquire(
          ctx.txn->id(), LockResource{table_hash, rid}, LockMode::kS,
          ctx.lock_timeout_ms, ctx.txn->age());
      if (!s.ok()) {
        // Stop the scan and surface the lock failure (deadlock victim /
        // injected timeout) as the statement status so the caller retries.
        RecordSideError(std::move(s));
        return false;
      }
      if (ctx.txn->isolation() == IsolationLevel::kReadCommitted) {
        ctx.txns->locks()->Release(ctx.txn->id(), LockResource{table_hash, rid});
      }
    }
    WorkerSink& sink = sinks[w];
    if (has_aggs) {
      if (stream_agg) {
        std::vector<int64_t> key(group_slots.size());
        for (size_t gi = 0; gi < group_slots.size(); ++gi) {
          key[gi] = wide[group_slots[gi]];
        }
        if (!stream_has || key != stream_key) {
          stream_flush();
          stream_key = std::move(key);
          stream_has = true;
        }
        for (size_t ai = 0; ai < aggs.size(); ++ai) {
          AggUpdate(aggs[ai], &stream_state[ai], L, wide);
        }
        return true;
      }
      if (group_slots.empty()) {
        for (size_t ai = 0; ai < aggs.size(); ++ai) {
          AggUpdate(aggs[ai], &sink.global[ai], L, wide);
        }
        return true;
      }
      std::vector<int64_t>& key = sink.key_buf;
      key.resize(group_slots.size());
      for (size_t gi = 0; gi < group_slots.size(); ++gi) {
        key[gi] = wide[group_slots[gi]];
      }
      // One hash serves the probe and, on overflow, the spill routing.
      const uint64_t h = AggHashTable::HashKey(key.data(), key.size());
      const size_t g = sink.table.FindOrInsert(key.data(), h, max_groups);
      if (g == AggHashTable::kNoSlot) {
        // Grace spill: route this row to a partition for phase 2.
        sink.spilling = true;
        auto& part = sink.spill_parts[h % kSpillParts];
        part.insert(part.end(), key.begin(), key.end());
        for (size_t ai = 0; ai < aggs.size(); ++ai) {
          double v = 0;
          if (aggs[ai].has_arg) v = EvalExpr(aggs[ai].arg, L, wide);
          part.push_back(std::bit_cast<int64_t>(v));
        }
        sink.spill_bytes += (key.size() + aggs.size()) * 8;
        return true;
      }
      AggState* st = sink.table.StatesAt(g);
      for (size_t ai = 0; ai < aggs.size(); ++ai) {
        AggUpdate(aggs[ai], &st[ai], L, wide);
      }
      return true;
    }
    // Collection path. Without a sort, output streams to the client: only
    // the materialization window is buffered (no server-side memory).
    sink.row_count++;
    if (plan.explicit_sort ||
        sink.row_count <= QueryResult::kMaxMaterializedRows) {
      for (int slot : proj_slots) sink.rows.push_back(wide[slot]);
    }
    if (limit >= 0) {
      const int64_t e = emitted.fetch_add(1) + 1;
      if (e >= limit) return false;
    }
    return true;
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

  // ---- Vectorized fast path: CSI base, no joins, global aggregation ----
  // This is what makes batch mode an order of magnitude cheaper per row.
  const bool fast_agg = plan.base.is_csi() && joins.empty() && has_aggs &&
                        group_slots.empty() && !stream_agg &&
                        ctx.txn == nullptr;
  // Grouped variant: aggregate straight off the decoded batches.
  const bool fast_group = plan.base.is_csi() && joins.empty() && has_aggs &&
                          !group_slots.empty() && !stream_agg &&
                          ctx.txn == nullptr && plan.driving_join < 0;
  // Batch-mode join pipeline: a CSI base whose join steps are all hash
  // joins probes on decoded key vectors and late-materializes the wide
  // row once, at the consume boundary. Unlike fast_agg/fast_group this
  // path stays eligible under transactions: consume() runs per surviving
  // join-output row exactly as in row mode, so lock/version semantics are
  // identical (row mode also pays them only after the joins).
  const bool fast_join =
      plan.base.is_csi() && !joins.empty() && plan.driving_join < 0 &&
      !stream_agg &&
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
    if (opx.join[driving_step] >= 0) {
      ops[opx.join[driving_step]].rows_in = dim_rows;
      ops[opx.join[driving_step]].rows_out = dim_rows;
      ops[opx.scan].rows_in = fact_entries;
    }
  } else if (fast_join) {
    // ---- Batch-mode join pipeline (CSI base, all-hash join steps). ----
    // Each decoded batch carries a probe selection (prow: surviving batch
    // positions) plus one build-row vector per completed step. A step
    // gathers the key column through prow, runs the vectorized
    // ComputeHashes / FindSlots / ExpandMatches kernels, and remaps the
    // carried vectors through the matches — multi-match keys expand, FK
    // -> PK takes the 1-match fast path. No wide row exists until the
    // consume boundary, where only rows that survived EVERY step gather
    // their dim payloads and remaining base columns.
    const CsiScan scan = MakeCsiScan(0, base_rp.csi, base_preds);
    const std::vector<int>& cols = scan.cols;
    const int ncneed = static_cast<int>(cols.size());
    std::vector<int> colslot(base->num_columns(), -1);
    for (int i = 0; i < ncneed; ++i) colslot[cols[i]] = i;
    // Batch-column index of each step's base join key (base wide slots
    // coincide with base column ids — the base is table 0 at offset 0).
    std::vector<int> key_ci(nsteps, -1);
    for (size_t s = 0; s < nsteps; ++s) {
      key_ci[s] = colslot[joins[s].base_join_slot];
    }
    struct JoinScratch {
      std::vector<int64_t> keys;
      std::vector<uint64_t> hashes;
      std::vector<int32_t> slots;
      std::vector<uint32_t> prow;
      std::vector<uint32_t> remap;
      std::vector<std::vector<uint32_t>> brows;  // per-step build rows
      std::vector<uint32_t> mp, mb;
    };
    std::vector<JoinScratch> scratch(nworkers);
    for (auto& js : scratch) js.brows.resize(nsteps);
    auto make_handler = [&](int w) {
      return [&, w](const ColumnBatch& b) {
        JoinScratch& js = scratch[w];
        base_out[w] += b.count;
        size_t cur = static_cast<size_t>(b.count);
        js.prow.resize(cur);
        for (size_t i = 0; i < cur; ++i) {
          js.prow[i] = static_cast<uint32_t>(i);
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
        // Consume boundary: the only wide-row materialization in the
        // pipeline, paid per surviving match.
        int64_t* wide = wide_bufs[w].data();
        for (size_t j = 0; j < cur; ++j) {
          const uint32_t pi = js.prow[j];
          for (int c = 0; c < ncneed; ++c) wide[cols[c]] = b.cols[c][pi];
          for (size_t s = 0; s < nsteps; ++s) {
            const HashDim& hd = joins[s].hash;
            const int64_t* dim_row =
                hd.rows.data() +
                static_cast<size_t>(js.brows[s][j]) * hd.stride;
            std::copy(dim_row, dim_row + hd.stride,
                      wide + joins[s].dim_offset);
          }
          const int64_t rid = b.locators != nullptr
                                  ? b.locators[pi]
                                  : -1;
          if (!consume(w, wide, rid)) return false;
        }
        return true;
      };
    };
    scan_status =
        DriveCsi(scan, nworkers, ScanM(), ops[opx.scan].name, make_handler);
  } else if (fast_group) {
    // Grouped aggregation directly over decoded batches: no wide-row
    // materialization, reusable key buffer, per-worker maps (merged in the
    // finish phase), grace-spill past the grant.
    const CsiScan scan = MakeCsiScan(0, base_rp.csi, base_preds);
    std::vector<int> slot_of_col(base->num_columns(), -1);
    for (size_t i = 0; i < scan.cols.size(); ++i) slot_of_col[scan.cols[i]] = i;
    std::vector<int> group_cis;  // batch column index per group col
    for (const auto& g : q.group_by) group_cis.push_back(slot_of_col[g.col]);
    auto make_handler = [&](int w) {
      return [&, w](const ColumnBatch& b) {
        WorkerSink& sink = sinks[w];
        sink.row_count += b.count;
        const size_t kw = group_cis.size();
        const size_t na = aggs.size();
        // Shared-scan batches address a dense decode through a selection
        // vector; private batches are compact (identity).
        const uint32_t* bsel = b.sel;
        auto phys = [bsel](int i) {
          return bsel != nullptr ? static_cast<int>(bsel[i]) : i;
        };
        // Gather group keys row-major, hash the whole batch once, then
        // resolve every row's group before any state is touched
        // (insertion may reallocate the state array).
        std::vector<int64_t>& kb = sink.key_buf;
        kb.resize(static_cast<size_t>(b.count) * kw);
        for (int i = 0; i < b.count; ++i) {
          for (size_t gi = 0; gi < kw; ++gi) {
            kb[i * kw + gi] = b.cols[group_cis[gi]][phys(i)];
          }
        }
        std::vector<uint64_t>& hb = sink.hash_buf;
        hb.resize(b.count);
        sink.table.ComputeHashes(kb.data(), b.count, hb.data());
        std::vector<uint32_t>& gidx = sink.gidx_buf;
        gidx.resize(b.count);
        for (int i = 0; i < b.count; ++i) {
          const int64_t* key = kb.data() + static_cast<size_t>(i) * kw;
          const size_t g = sink.table.FindOrInsert(key, hb[i], max_groups);
          if (g == AggHashTable::kNoSlot) {
            gidx[i] = kSpilledRow;
            sink.spilling = true;
            auto& part = sink.spill_parts[hb[i] % kSpillParts];
            part.insert(part.end(), key, key + kw);
            for (size_t ai = 0; ai < na; ++ai) {
              double v = 0;
              if (aggs[ai].has_arg) {
                v = EvalExprBatch(aggs[ai].arg, L, b.cols, slot_of_col,
                                  phys(i));
              }
              part.push_back(std::bit_cast<int64_t>(v));
            }
            sink.spill_bytes += (kw + na) * 8;
          } else {
            gidx[i] = static_cast<uint32_t>(g);
          }
        }
        // Per-aggregate column loops over the resolved groups: one tight
        // loop per aggregate instead of a per-row per-agg switch. State
        // pointers are resolved once per row (null = spilled); the key and
        // its states share a payload row, so the lines are already warm
        // from the probe.
        std::vector<AggState*>& rs = sink.srow_buf;
        rs.resize(b.count);
        for (int i = 0; i < b.count; ++i) {
          rs[i] = gidx[i] == kSpilledRow ? nullptr
                                         : sink.table.StatesAt(gidx[i]);
        }
        for (size_t ai = 0; ai < na; ++ai) {
          const AggDesc& a = aggs[ai];
          switch (a.fn) {
            case AggSpec::Fn::kCount:
              for (int i = 0; i < b.count; ++i) {
                if (rs[i] != nullptr) ++rs[i][ai].count;
              }
              break;
            case AggSpec::Fn::kSum:
            case AggSpec::Fn::kAvg:
              if (a.arg_is_col && a.arg_is_int) {
                const int64_t* col = b.cols[slot_of_col[a.arg_col.col]];
                for (int i = 0; i < b.count; ++i) {
                  if (rs[i] == nullptr) continue;
                  AggState& st = rs[i][ai];
                  ++st.count;
                  st.i += col[phys(i)];
                }
              } else {
                for (int i = 0; i < b.count; ++i) {
                  if (rs[i] == nullptr) continue;
                  AggState& st = rs[i][ai];
                  ++st.count;
                  st.d += EvalExprBatch(a.arg, L, b.cols, slot_of_col,
                                        phys(i));
                }
              }
              break;
            case AggSpec::Fn::kMin:
            case AggSpec::Fn::kMax: {
              const bool is_min = a.fn == AggSpec::Fn::kMin;
              if (a.arg_is_col) {
                const int64_t* col = b.cols[slot_of_col[a.arg_col.col]];
                for (int i = 0; i < b.count; ++i) {
                  if (rs[i] == nullptr) continue;
                  AggState& st = rs[i][ai];
                  const int64_t v = col[phys(i)];
                  if (!st.has || (is_min ? v < st.packed_minmax
                                         : v > st.packed_minmax)) {
                    st.packed_minmax = v;
                  }
                  st.has = true;
                }
              } else {
                for (int i = 0; i < b.count; ++i) {
                  if (rs[i] == nullptr) continue;
                  AggState& st = rs[i][ai];
                  const double v =
                      EvalExprBatch(a.arg, L, b.cols, slot_of_col, phys(i));
                  if (!st.has || (is_min ? v < st.d : v > st.d)) st.d = v;
                  st.has = true;
                }
              }
              break;
            }
          }
        }
        return true;
      };
    };
    scan_status =
        DriveCsi(scan, nworkers, ScanM(), ops[opx.scan].name, make_handler);
  } else if (fast_agg) {
    CsiScan scan = MakeCsiScan(0, base_rp.csi, base_preds);
    std::vector<int> slot_of_col(base->num_columns(), -1);
    for (size_t i = 0; i < scan.cols.size(); ++i) slot_of_col[scan.cols[i]] = i;
    // Map the aggregate list onto encoded-domain pushdown specs. All-or-
    // nothing: a row group is either answered entirely from segment
    // metadata / encoded kernels or scanned normally. Min/max can push any
    // single column (packing is order-preserving); SUM/AVG only integer
    // columns (double sums need value-domain addition).
    bool push_ok = !aggs.empty();
    for (const auto& a : aggs) {
      PushAggSpec s;
      if (a.fn == AggSpec::Fn::kCount && !a.has_arg) {
        s.fn = PushAggSpec::Fn::kCount;
      } else if ((a.fn == AggSpec::Fn::kSum || a.fn == AggSpec::Fn::kAvg) &&
                 a.arg_is_col && a.arg_is_int && a.arg_col.table == 0) {
        s.fn = PushAggSpec::Fn::kSum;
        s.col = a.arg_col.col;
      } else if ((a.fn == AggSpec::Fn::kMin || a.fn == AggSpec::Fn::kMax) &&
                 a.arg_is_col && a.arg_col.table == 0) {
        s.fn = a.fn == AggSpec::Fn::kMin ? PushAggSpec::Fn::kMin
                                         : PushAggSpec::Fn::kMax;
        s.col = a.arg_col.col;
      } else {
        push_ok = false;
        break;
      }
      pspecs.push_back(s);
    }
    if (!push_ok) pspecs.clear();
    if (!pspecs.empty()) {
      pacc.assign(nworkers, std::vector<PushAggState>(pspecs.size()));
      pushed_rows.assign(nworkers, 0);
      // A row group answered entirely in the encoded domain never reaches
      // the decode handler (Fig. 4 aggregate pushdown).
      scan.pushdown = [&](int w, int g, const std::unordered_set<int64_t>& dead,
                          QueryMetrics* wm) {
        uint64_t pr = 0;
        if (!scan.csi->TryPushdownAggregates(g, scan.preds, pspecs,
                                             pacc[w].data(), &dead, wm, &pr)) {
          return false;
        }
        pushed_rows[w] += pr;
        return true;
      };
    }
    auto make_handler = [&](int w) {
      return [&, w](const ColumnBatch& b) {
        WorkerSink& sink = sinks[w];
        sink.row_count += b.count;
        // Shared-scan batches address a dense decode through a selection
        // vector; the hot kernels get their own indexed loops so the
        // private (compact) path stays branch-free.
        const uint32_t* bsel = b.sel;
        for (size_t ai = 0; ai < aggs.size(); ++ai) {
          const AggDesc& a = aggs[ai];
          AggState& st = sink.global[ai];
          if (a.fn == AggSpec::Fn::kCount && !a.has_arg) {
            st.count += b.count;
            continue;
          }
          if (a.arg_is_col) {
            const int ci = slot_of_col[a.arg_col.col];
            const int64_t* col = b.cols[ci];
            switch (a.fn) {
              case AggSpec::Fn::kSum:
              case AggSpec::Fn::kAvg: {
                st.count += b.count;
                if (a.arg_is_int) {
                  int64_t acc = 0;
                  if (bsel == nullptr) {
                    for (int i = 0; i < b.count; ++i) acc += col[i];
                  } else {
                    for (int i = 0; i < b.count; ++i) acc += col[bsel[i]];
                  }
                  st.i += acc;
                } else {
                  double acc = 0;
                  if (bsel == nullptr) {
                    for (int i = 0; i < b.count; ++i) {
                      acc += UnpackDouble(col[i]);
                    }
                  } else {
                    for (int i = 0; i < b.count; ++i) {
                      acc += UnpackDouble(col[bsel[i]]);
                    }
                  }
                  st.d += acc;
                }
                break;
              }
              case AggSpec::Fn::kMin:
              case AggSpec::Fn::kMax: {
                int64_t mv = bsel == nullptr ? col[0] : col[bsel[0]];
                if (a.fn == AggSpec::Fn::kMin) {
                  if (bsel == nullptr) {
                    for (int i = 1; i < b.count; ++i) mv = std::min(mv, col[i]);
                  } else {
                    for (int i = 1; i < b.count; ++i) {
                      mv = std::min(mv, col[bsel[i]]);
                    }
                  }
                } else {
                  if (bsel == nullptr) {
                    for (int i = 1; i < b.count; ++i) mv = std::max(mv, col[i]);
                  } else {
                    for (int i = 1; i < b.count; ++i) {
                      mv = std::max(mv, col[bsel[i]]);
                    }
                  }
                }
                if (!st.has ||
                    (a.fn == AggSpec::Fn::kMin ? mv < st.packed_minmax
                                               : mv > st.packed_minmax)) {
                  st.packed_minmax = mv;
                }
                st.has = true;
                break;
              }
              default:
                break;
            }
          } else {
            st.count += b.count;
            double acc = 0;
            for (int i = 0; i < b.count; ++i) {
              const int pi = bsel != nullptr ? static_cast<int>(bsel[i]) : i;
              acc += EvalExprBatch(a.arg, L, b.cols, slot_of_col, pi);
            }
            if (a.fn == AggSpec::Fn::kSum || a.fn == AggSpec::Fn::kAvg) {
              st.d += acc;
            }
          }
        }
        return true;
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

  if (!plan.base.is_csi()) {
    // Row-mode probe overhead, charged per join step from its inflow.
    const double rate = nworkers > 1 ? ctx.parallel_row_overhead_ns
                                     : ctx.serial_row_overhead_ns;
    for (size_t s = 0; s < nsteps; ++s) {
      if (static_cast<int>(s) == driving_step) continue;
      if (joins[s].method != JoinStep::Method::kHash) continue;
      uint64_t probes = 0;
      for (uint64_t c : join_in[s]) probes += c;
      OpM(opx.join[s])->cpu_ns += static_cast<uint64_t>(probes * rate);
    }
  }

  // ---- Finish: merge worker states, spill phase 2, sort, decode. ----
  // Finish-phase charges (merge cpu, spill io, peak memory) land on the
  // root-side operator that does the work: Agg, else Sort, else Project.
  QueryMetrics* fm = has_aggs ? OpM(opx.agg)
                     : (plan.explicit_sort && !sort_pos.empty())
                         ? OpM(opx.sort)
                         : OpM(opx.output);
  Timer tfin;
  if (has_aggs) {
    if (stream_agg) {
      stream_flush();
      res.rows = std::move(stream_out);
      res.row_count = res.rows.size();
    } else if (group_slots.empty()) {
      std::vector<AggState> final_state(aggs.size());
      for (auto& s : sinks) {
        for (size_t ai = 0; ai < aggs.size(); ++ai) {
          AggMerge(aggs[ai], &final_state[ai], s.global[ai]);
        }
      }
      // Fold encoded-domain pushdown partials (row groups that never
      // produced a batch) into the final state.
      if (!pspecs.empty()) {
        for (const auto& wp : pacc) {
          for (size_t ai = 0; ai < aggs.size(); ++ai) {
            const PushAggState& p = wp[ai];
            AggState& st = final_state[ai];
            switch (pspecs[ai].fn) {
              case PushAggSpec::Fn::kCount:
                st.count += p.count;
                break;
              case PushAggSpec::Fn::kSum:
                st.count += p.count;
                st.i += p.sum;
                break;
              case PushAggSpec::Fn::kMin:
              case PushAggSpec::Fn::kMax: {
                if (!p.has) break;
                const bool is_min = pspecs[ai].fn == PushAggSpec::Fn::kMin;
                if (!st.has || (is_min ? p.minmax < st.packed_minmax
                                       : p.minmax > st.packed_minmax)) {
                  st.packed_minmax = p.minmax;
                }
                st.has = true;
                break;
              }
            }
          }
        }
      }
      Row r;
      for (size_t ai = 0; ai < aggs.size(); ++ai) {
        r.push_back(AggFinal(aggs[ai], final_state[ai], L));
      }
      res.rows.push_back(std::move(r));
      res.row_count = 1;
    } else {
      constexpr size_t kUnlimited = static_cast<size_t>(-1);
      // Merge worker tables into worker 0's. Group hashes were cached at
      // insert time, so the merge re-probes without rehashing any key.
      AggHashTable& global = sinks[0].table;
      for (int w = 1; w < nworkers; ++w) {
        const AggHashTable& t = sinks[w].table;
        for (size_t g = 0; g < t.size(); ++g) {
          const size_t dst =
              global.FindOrInsert(t.KeyAt(g), t.HashAt(g), kUnlimited);
          AggState* into = global.StatesAt(dst);
          const AggState* from = t.StatesAt(g);
          for (size_t ai = 0; ai < aggs.size(); ++ai) {
            AggMerge(aggs[ai], &into[ai], from[ai]);
          }
        }
      }
      // Grace-hash phase 2 over spilled partitions.
      uint64_t spill_total = 0;
      for (auto& s : sinks) spill_total += s.spill_bytes;
      uint64_t phase2_probes = 0;
      if (spill_total > 0) {
        res.spilled = true;
        fm->spill_bytes += spill_total;
        HD_RETURN_IF_ERROR(
            ctx.db->disk()->Write(spill_total, IoPattern::kSequential, fm));
        HD_RETURN_IF_ERROR(
            ctx.db->disk()->Read(spill_total, IoPattern::kSequential, fm));
        const size_t kwg = group_slots.size();
        const size_t kstride = kwg + aggs.size();
        for (int part = 0; part < kSpillParts; ++part) {
          AggHashTable pm;
          pm.Init(kwg, aggs.size());
          for (auto& s : sinks) {
            const auto& buf = s.spill_parts[part];
            for (size_t off = 0; off + kstride <= buf.size(); off += kstride) {
              const int64_t* key = buf.data() + off;
              const uint64_t h = AggHashTable::HashKey(key, kwg);
              const size_t g = pm.FindOrInsert(key, h, kUnlimited);
              AggState* st = pm.StatesAt(g);
              for (size_t ai = 0; ai < aggs.size(); ++ai) {
                const double v = std::bit_cast<double>(buf[off + kwg + ai]);
                switch (aggs[ai].fn) {
                  case AggSpec::Fn::kCount: ++st[ai].count; break;
                  case AggSpec::Fn::kSum:
                  case AggSpec::Fn::kAvg: ++st[ai].count; st[ai].d += v; break;
                  case AggSpec::Fn::kMin:
                  case AggSpec::Fn::kMax:
                    if (!st[ai].has ||
                        (aggs[ai].fn == AggSpec::Fn::kMin ? v < st[ai].d
                                                          : v > st[ai].d)) {
                      st[ai].d = v;
                    }
                    st[ai].has = true;
                    break;
                }
              }
            }
          }
          for (size_t g = 0; g < pm.size(); ++g) {
            const size_t dst =
                global.FindOrInsert(pm.KeyAt(g), pm.HashAt(g), kUnlimited);
            AggState* into = global.StatesAt(dst);
            const AggState* st = pm.StatesAt(g);
            for (size_t ai = 0; ai < aggs.size(); ++ai) {
              // Spilled aggregates lose the int fast path; merge as double.
              switch (aggs[ai].fn) {
                case AggSpec::Fn::kCount:
                case AggSpec::Fn::kSum:
                case AggSpec::Fn::kAvg:
                  into[ai].count += st[ai].count;
                  into[ai].d += st[ai].d;
                  break;
                case AggSpec::Fn::kMin:
                case AggSpec::Fn::kMax:
                  AggMerge(aggs[ai], &into[ai], st[ai]);
                  break;
              }
            }
          }
          phase2_probes += pm.probes();
        }
      }
      // Probe-chain accounting: worker tables (scan-time probes plus the
      // merges into worker 0's) and the phase-2 partition tables.
      uint64_t probes = phase2_probes;
      for (const auto& s : sinks) probes += s.table.probes();
      fm->hash_probes += probes;
      fm->UpdatePeakMemory(global.size() * group_entry_bytes);
      res.row_count = global.size();
      // Decode (capped).
      for (size_t g = 0; g < global.size(); ++g) {
        if (res.rows.size() >= QueryResult::kMaxMaterializedRows) break;
        const int64_t* k = global.KeyAt(g);
        const AggState* st = global.StatesAt(g);
        Row r;
        for (size_t gi = 0; gi < group_slots.size(); ++gi) {
          const ColRef& gc = q.group_by[gi];
          r.push_back(L.tables[gc.table]->UnpackValue(gc.col, k[gi]));
        }
        for (size_t ai = 0; ai < aggs.size(); ++ai) {
          r.push_back(AggFinal(aggs[ai], st[ai], L));
        }
        res.rows.push_back(std::move(r));
      }
    }
  } else {
    // Collected rows: concatenate, sort if needed, decode.
    const size_t stride = proj_slots.size();
    size_t total_rows = 0;
    for (auto& s : sinks) total_rows += s.row_count;
    std::vector<int64_t> all;
    all.reserve(total_rows * stride);
    for (auto& s : sinks) {
      all.insert(all.end(), s.rows.begin(), s.rows.end());
      s.rows.clear();
      s.rows.shrink_to_fit();
    }
    const uint64_t bytes = all.size() * 8;
    fm->UpdatePeakMemory(bytes);
    // Output order: a sorted row index, or scan order when `idx` is empty.
    std::vector<uint32_t> idx;
    if (plan.explicit_sort && !sort_pos.empty()) {
      idx.resize(total_rows);
      std::iota(idx.begin(), idx.end(), 0u);
      auto cmp = [&](uint32_t a, uint32_t b) {
        for (int sp2 : sort_pos) {
          const int64_t va = all[a * stride + sp2];
          const int64_t vb = all[b * stride + sp2];
          if (va != vb) return va < vb;
        }
        return a < b;
      };
      if (bytes > grant && grant > 0) {
        // External merge sort: sorted runs of grant-size + k-way merge.
        res.spilled = true;
        fm->spill_bytes += bytes;
        HD_RETURN_IF_ERROR(
            ctx.db->disk()->Write(bytes, IoPattern::kSequential, fm));
        HD_RETURN_IF_ERROR(
            ctx.db->disk()->Read(bytes, IoPattern::kSequential, fm));
        const size_t run_rows =
            std::max<size_t>(1, grant / 8 / std::max<size_t>(1, stride));
        std::vector<std::pair<size_t, size_t>> runs;
        for (size_t b2 = 0; b2 < total_rows; b2 += run_rows) {
          const size_t e2 = std::min(total_rows, b2 + run_rows);
          std::sort(idx.begin() + b2, idx.begin() + e2, cmp);
          runs.emplace_back(b2, e2);
        }
        // K-way merge.
        std::vector<uint32_t> merged;
        merged.reserve(total_rows);
        using HeapEnt = std::pair<uint32_t, size_t>;  // (row idx, run#)
        auto hcmp = [&](const HeapEnt& a, const HeapEnt& b) {
          return cmp(b.first, a.first);
        };
        std::priority_queue<HeapEnt, std::vector<HeapEnt>, decltype(hcmp)> pq(
            hcmp);
        std::vector<size_t> pos(runs.size());
        for (size_t r2 = 0; r2 < runs.size(); ++r2) {
          pos[r2] = runs[r2].first;
          if (pos[r2] < runs[r2].second) pq.push({idx[pos[r2]], r2});
        }
        while (!pq.empty()) {
          auto [ri, rn] = pq.top();
          pq.pop();
          merged.push_back(ri);
          if (++pos[rn] < runs[rn].second) pq.push({idx[pos[rn]], rn});
        }
        idx = std::move(merged);
      } else {
        std::sort(idx.begin(), idx.end(), cmp);
      }
    }
    size_t out_n = total_rows;
    if (q.limit >= 0) out_n = std::min<size_t>(out_n, q.limit);
    res.row_count = out_n;
    const size_t matn =
        std::min<size_t>(out_n, QueryResult::kMaxMaterializedRows);
    const size_t nsel = q.select_cols.empty() ? stride : q.select_cols.size();
    for (size_t i = 0; i < matn; ++i) {
      const size_t ri = idx.empty() ? i : idx[i];
      Row r;
      for (size_t p2 = 0; p2 < nsel; ++p2) {
        const ColRef& ref = proj_refs[p2];
        r.push_back(
            L.tables[ref.table]->UnpackValue(ref.col, all[ri * stride + p2]));
      }
      res.rows.push_back(std::move(r));
    }
  }
  fm->cpu_ns += static_cast<uint64_t>(tfin.ElapsedMs() * 1e6);

  // Post-sort small aggregate outputs if ORDER BY requested on them.
  if (has_aggs && !q.order_by.empty() && !res.rows.empty()) {
    std::vector<int> pos;
    for (const auto& o : q.order_by) {
      for (size_t gi = 0; gi < q.group_by.size(); ++gi) {
        if (q.group_by[gi] == o) pos.push_back(static_cast<int>(gi));
      }
    }
    std::sort(res.rows.begin(), res.rows.end(), [&](const Row& a, const Row& b) {
      for (int p2 : pos) {
        const int c = a[p2].Compare(b[p2]);
        if (c != 0) return c < 0;
      }
      return false;
    });
    if (q.limit >= 0 && static_cast<int64_t>(res.rows.size()) > q.limit) {
      res.rows.resize(q.limit);
      res.row_count = res.rows.size();
    }
  }

  // Fold the per-worker row-flow counters into the operator profiles.
  auto fold = [](const std::vector<uint64_t>& v) {
    uint64_t t = 0;
    for (uint64_t c : v) t += c;
    return t;
  };
  if (opx.scan >= 0) {
    if (fast_agg || fast_group) {
      // Batch paths feed the aggregate straight from decoded batches;
      // rows answered by encoded-domain pushdown flow logically too.
      uint64_t batched = 0;
      for (const auto& s : sinks) batched += s.row_count;
      for (uint64_t pr : pushed_rows) batched += pr;
      ops[opx.scan].rows_out = batched;
      if (opx.agg >= 0) ops[opx.agg].rows_in = batched;
    } else {
      ops[opx.scan].rows_out = fold(base_out);
    }
  }
  for (size_t s = 0; s < nsteps; ++s) {
    if (static_cast<int>(s) == driving_step) continue;  // set above
    ops[opx.join[s]].rows_in = fold(join_in[s]);
    ops[opx.join[s]].rows_out = fold(join_out[s]);
  }
  if (!fast_agg && !fast_group) {
    const uint64_t into_sink = fold(sink_in);
    if (opx.agg >= 0) ops[opx.agg].rows_in = into_sink;
    if (opx.output >= 0) ops[opx.output].rows_in = into_sink;
    if (opx.sort >= 0 && opx.agg < 0) ops[opx.sort].rows_in = into_sink;
  }
  if (opx.agg >= 0) ops[opx.agg].rows_out = res.row_count;
  if (opx.sort >= 0) {
    if (opx.agg >= 0) ops[opx.sort].rows_in = res.row_count;
    ops[opx.sort].rows_out = res.row_count;
  }
  if (opx.output >= 0) ops[opx.output].rows_out = res.row_count;
  return Status::OK();
}

// ---------------------------------------------------------------------
// DML execution.
// ---------------------------------------------------------------------

Status Executor::Impl::RunDml() {
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
  if (q.kind == Query::Kind::kInsert) {
    for (const auto& vr : q.insert_rows) {
      PackedRow p = base->PackRow(vr);
      int64_t rid = -1;
      mark_wal_write();  // even a failed insert logs its compensation
      HD_RETURN_IF_ERROR(base->InsertPacked(p, m, &rid, wal_txn));
      if (ctx.txn != nullptr && ctx.txns != nullptr) {
        HD_RETURN_IF_ERROR(LockRowX(rid));
        ctx.txns->NoteVersion(table_hash, rid, ctx.txn);
      }
      ++res.affected_rows;
    }
    if (opx.output >= 0) {
      ops[opx.output].rows_in = q.insert_rows.size();
      ops[opx.output].rows_out = res.affected_rows;
    }
    return Status::OK();
  }

  // UPDATE / DELETE: collect qualifying rows (TOP N), then mutate.
  const int64_t topn = q.limit >= 0 ? q.limit : INT64_MAX;
  std::vector<RowRef> refs;
  Timer t;
  Status s = ScanTable(0, plan.base, base_preds, 1, ScanM(), ops[opx.scan].name,
                       [&](int, int64_t rid, const int64_t* row) {
                         RowRef r;
                         r.rid = rid;
                         r.row.assign(row, row + base->num_columns());
                         refs.push_back(std::move(r));
                         return static_cast<int64_t>(refs.size()) < topn;
                       });
  HD_RETURN_IF_ERROR(s);
  HD_RETURN_IF_ERROR(TakeSideError());
  m->cpu_ns += static_cast<uint64_t>(t.ElapsedMs() * 1e6);
  if (opx.scan >= 0) ops[opx.scan].rows_out = refs.size();
  if (opx.output >= 0) ops[opx.output].rows_in = refs.size();

  if (ctx.txn != nullptr && ctx.txns != nullptr) {
    for (const auto& r : refs) {
      HD_RETURN_IF_ERROR(LockRowX(r.rid));
    }
  }

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
  impl.res.plan_desc = plan.Describe();
  impl.res.trace_id = ctx_.capture.trace_id;
  // Admission gate: non-transactional SELECTs acquire a slot before any
  // latch or lock (a queued query holds nothing). Statements inside a
  // transaction bypass the gate — stalling a lock holder in the admission
  // queue would invite deadlocks the lock manager cannot see.
  AdmissionController::Ticket ticket;
  if (ctx_.admission != nullptr && q.kind == Query::Kind::kSelect &&
      ctx_.txn == nullptr) {
    const bool tracing = Trace::Enabled();
    const uint64_t tr0 = tracing ? Trace::Global().NowUs() : 0;
    Status as = ctx_.admission->Admit(ctx_.memory_grant_bytes, &ticket);
    impl.res.queue_ms = wall_ms_since();
    if (tracing) {
      Trace::Global().Record("AdmissionWait", 0, tr0,
                             Trace::Global().NowUs() - tr0, 0,
                             ctx_.capture.trace_id, "admission");
    }
    if (!as.ok()) {
      // Shed queries are still captured: a store that hides admission
      // rejections would under-report exactly the overload the advisor
      // most needs to see.
      impl.res.status = std::move(as);
      SStats().errors->Add(1);
      SStats().ForKind(q.kind)->Record(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - stmt_t0)
              .count());
      CaptureRecord(ctx_, q, impl.res, wall_ms_since());
      return std::move(impl.res);
    }
  }
  Status s = impl.Setup();
  if (s.ok()) {
    // Physical latches: shared for reads, exclusive on the base for DML.
    // Tables are latched in pointer order to avoid latch deadlocks.
    std::vector<Table*> latch_order(impl.L.tables);
    std::sort(latch_order.begin(), latch_order.end());
    latch_order.erase(std::unique(latch_order.begin(), latch_order.end()),
                      latch_order.end());
    if (q.kind == Query::Kind::kSelect) {
      std::vector<std::shared_lock<FairSharedMutex>> latches;
      latches.reserve(latch_order.size());
      for (Table* t : latch_order) latches.emplace_back(t->phys_latch());
      s = impl.RunSelect();
    } else {
      {
        std::unique_lock<FairSharedMutex> latch(impl.base->phys_latch());
        s = impl.RunDml();
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
  impl.res.metrics.dop = impl.use_shared_scan ? 1 : impl.dop();
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
