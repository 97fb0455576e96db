#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
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
  bool impossible = false;
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
      if (!found) {
        b.impossible = true;
      } else {
        b.lo = b.hi = v;
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
    if (b.lo > b.hi) b.impossible = true;
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
  int table_idx = 0;  // layout index
  std::vector<int64_t> rows;  // flat, stride = dim ncols
  int stride = 0;
  std::vector<std::pair<int64_t, uint32_t>> build_pairs;
  FlatJoinMap map;
  /// Build-side Bloom filter, pushed into CSI base scans as a join-key
  /// pre-filter (sideways information passing). Empty when never built.
  BlockedBloomFilter bloom;
};

struct NlDim {
  int table_idx = 0;
  Table* table = nullptr;
  BTree* tree = nullptr;
  int kw = 0;
  /// entry slot per dim column (0..kw-1 key slots, kw.. payload), -1 absent.
  std::vector<int> entry_slot;
  std::vector<BoundPred> preds;
  /// pk-hint slots within the entry (for FetchRow when a column is absent).
  std::vector<int> pk_slots;
  bool covering = true;  // all needed dim columns present in the entry
  std::vector<int> needed_cols;
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
  std::vector<int> needed_base_cols;  // columns the query actually touches
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
  /// DriveBaseScan takes the scheduler branch and reported DOP is 1.
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

  // Base scan driving `emit(rid, base_row)` with `nworkers` workers.
  // `emit` must be thread-compatible (worker-local state captured by the
  // caller via the worker index).
  using EmitFn = std::function<bool(int worker, int64_t rid, const int64_t*)>;
  Status DriveBaseScan(int nworkers, const EmitFn& emit);

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

  // CSI batch scan fast path plumbing.
  bool CsiFastPathEligible() const;

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

  // Base columns the query touches (DML and SELECT * need everything).
  {
    std::vector<char> need(base->num_columns(), 0);
    if (q.kind != Query::Kind::kSelect ||
        (q.aggs.empty() && q.select_cols.empty())) {
      std::fill(need.begin(), need.end(), 1);
    } else {
      for (const auto& a : q.aggs) {
        if (a.arg) {
          std::vector<ColRef> refs;
          CollectExprCols(*a.arg, &refs);
          for (const auto& r : refs) {
            if (r.table == 0) need[r.col] = 1;
          }
        }
      }
      auto mark = [&](const std::vector<ColRef>& refs) {
        for (const auto& r : refs) {
          if (r.table == 0) need[r.col] = 1;
        }
      };
      mark(q.group_by);
      mark(q.order_by);
      mark(q.select_cols);
      for (const auto& j : q.joins) need[j.base_col] = 1;
      for (const auto& p : q.base.preds) need[p.col] = 1;
    }
    for (int c = 0; c < base->num_columns(); ++c) {
      if (need[c]) needed_base_cols.push_back(c);
    }
  }

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

// Scan one dimension with its own access path, invoking fn(dim_row).
static Status ScanDim(Table* dim, const AccessPath& path,
                      const std::vector<BoundPred>& preds,
                      const std::function<void(const int64_t*)>& fn,
                      QueryMetrics* m, double row_overhead_ns) {
  const int ncols = dim->num_columns();
  for (const auto& p : preds) {
    if (p.impossible) return Status::OK();
  }
  switch (path.kind) {
    case AccessPath::Kind::kHeapScan: {
      uint64_t seen = 0;
      Status hs = dim->heap()->Scan(
          [&](uint64_t, const int64_t* row) {
            ++seen;
            if (CheckPreds(preds, row)) fn(row);
            return true;
          },
          m);
      if (m != nullptr) {
        m->cpu_ns += static_cast<uint64_t>(seen * row_overhead_ns);
      }
      return hs;
    }
    case AccessPath::Kind::kCsiScan: {
      ColumnStoreIndex* csi = path.index_name.empty()
                                  ? dim->primary_csi()
                                  : dim->FindSecondary(path.index_name)->csi.get();
      std::vector<int> all(ncols);
      for (int c = 0; c < ncols; ++c) all[c] = c;
      std::vector<SegPredicate> sp;
      for (const auto& p : preds) sp.push_back({p.col, p.lo, p.hi});
      PackedRow row(ncols);
      auto emit = [&](const ColumnBatch& b) {
        for (int i = 0; i < b.count; ++i) {
          for (int c = 0; c < ncols; ++c) row[c] = b.cols[c][i];
          fn(row.data());
        }
        return true;
      };
      HD_RETURN_IF_ERROR(
          csi->ScanGroups(0, csi->num_row_groups(), all, sp, emit, m));
      return csi->ScanDelta(all, sp, emit, m);
    }
    case AccessPath::Kind::kBTreeRange:
    case AccessPath::Kind::kBTreeFullScan: {
      BTree* tree;
      std::vector<int> key_cols;
      std::vector<int> payload_cols;
      bool payload_full = false;
      if (path.index_name.empty()) {
        tree = dim->primary_btree();
        key_cols = dim->primary_key_cols();
        payload_full = true;
      } else {
        SecondaryIndex* si = dim->FindSecondary(path.index_name);
        if (si == nullptr || !si->btree) {
          return Status::NotFound("index " + path.index_name);
        }
        tree = si->btree.get();
        key_cols = si->def.key_cols;
        payload_cols = si->payload_cols;
      }
      if (tree == nullptr) return Status::Internal("no btree for dim");
      const int kw = static_cast<int>(key_cols.size()) + 1;
      // Build bounds from preds on leading key columns.
      Bound lo, hi;
      for (int k = 0; k < static_cast<int>(key_cols.size()); ++k) {
        const BoundPred* bp = nullptr;
        for (const auto& p : preds) {
          if (p.col == key_cols[k]) bp = &p;
        }
        if (bp == nullptr) break;
        lo.key.push_back(bp->lo);
        hi.key.push_back(bp->hi);
        if (bp->lo != bp->hi) break;
      }
      PackedRow row(ncols);
      std::vector<char> have(ncols, 0);
      uint64_t seen = 0;
      Status fetch_err;
      Status ts = tree->Scan(lo, hi, [&](const int64_t* key, const int64_t* payload) {
        ++seen;
        std::fill(have.begin(), have.end(), 0);
        for (size_t k = 0; k < key_cols.size(); ++k) {
          row[key_cols[k]] = key[k];
          have[key_cols[k]] = 1;
        }
        if (payload_full) {
          for (int c = 0; c < ncols; ++c) row[c] = payload[c];
        } else {
          for (size_t pi = 0; pi < payload_cols.size(); ++pi) {
            row[payload_cols[pi]] = payload[pi];
            have[payload_cols[pi]] = 1;
          }
          // Non-covering: fetch the full row (key lookup).
          bool missing = false;
          for (int c = 0; c < ncols && !missing; ++c) missing = !have[c];
          if (missing) {
            std::vector<int64_t> pk_hint;
            for (int pk : dim->primary_key_cols()) pk_hint.push_back(row[pk]);
            PackedRow full;
            Status fs = dim->FetchRow(key[kw - 1], pk_hint, &full, m);
            if (fs.ok()) {
              row = full;
            } else if (fs.IsIoError()) {
              // A failed read must fail the scan; a vanished row is skipped.
              fetch_err = std::move(fs);
              return false;
            }
          }
        }
        if (CheckPreds(preds, row.data())) fn(row.data());
        return true;
      }, m);
      if (m != nullptr) {
        m->cpu_ns += static_cast<uint64_t>(seen * row_overhead_ns);
      }
      if (!fetch_err.ok()) return fetch_err;
      return ts;
    }
  }
  return Status::Internal("unreachable");
}

Status Executor::Impl::PrepareJoins() {
  const int driving = DrivingStepIndex();
  for (size_t s = 0; s < plan.joins.size(); ++s) {
    const JoinStep& step = plan.joins[s];
    // Build-side work (dim scan, hash build, NL setup) is attributed to
    // this join step's operator block.
    QueryMetrics* m = OpM(opx.join[s]);
    Timer tstep;
    if (static_cast<int>(s) == driving) {
      // The driving dimension is scanned as the outer side; keep a
      // placeholder so pipeline step indices stay aligned.
      JoinExec je;
      je.method = JoinStep::Method::kHash;
      je.base_join_slot = -1;
      joins.push_back(std::move(je));
      continue;
    }
    const JoinClause& jc = q.joins[step.join_idx];
    Table* dim = L.tables[step.join_idx + 1];
    JoinExec je;
    je.method = step.method;
    je.base_join_slot = L.SlotOf(ColRef{0, jc.base_col});
    je.dim_offset = L.offset[step.join_idx + 1];
    std::vector<BoundPred> dim_preds = BindPreds(*dim, jc.dim.preds);
    if (step.method == JoinStep::Method::kHash) {
      je.hash.table_idx = step.join_idx + 1;
      je.hash.stride = dim->num_columns();
      // Morsel-parallel build: a CSI dimension with multiple row groups is
      // scanned over the morsel pool into per-worker partitions, which are
      // then stitched (index offset fix-up) into the single flat build
      // array the counting-sort Build consumes. MorselLoop merges the
      // per-slot metrics into `m`, so build time stays attributed to this
      // join's operator block exactly as in the serial path.
      ColumnStoreIndex* dcsi = nullptr;
      if (step.dim_path.kind == AccessPath::Kind::kCsiScan) {
        if (step.dim_path.index_name.empty()) {
          dcsi = dim->primary_csi();
        } else {
          SecondaryIndex* si = dim->FindSecondary(step.dim_path.index_name);
          dcsi = si != nullptr && si->csi ? si->csi.get() : nullptr;
        }
      }
      const int bw = dop();
      bool impossible = false;
      for (const auto& p : dim_preds) impossible |= p.impossible;
      if (!impossible && dcsi != nullptr && bw > 1 &&
          dcsi->num_row_groups() > 1) {
        // Decode only the columns the query touches on this dimension
        // (join column, dim predicates, downstream references); the flat
        // rows' other slots stay zero and are never read.
        const int ncols = dim->num_columns();
        std::vector<char> needed(ncols, 0);
        needed[jc.dim_col] = 1;
        for (const auto& p : dim_preds) needed[p.col] = 1;
        std::vector<ColRef> refs;
        for (const auto& a : q.aggs) {
          if (a.arg) CollectExprCols(*a.arg, &refs);
        }
        for (const auto& g : q.group_by) refs.push_back(g);
        for (const auto& o : q.order_by) refs.push_back(o);
        for (const auto& sc : q.select_cols) refs.push_back(sc);
        for (const auto& r : refs) {
          if (r.table == step.join_idx + 1) needed[r.col] = 1;
        }
        std::vector<int> dcols;
        for (int c = 0; c < ncols; ++c) {
          if (needed[c]) dcols.push_back(c);
        }
        std::vector<SegPredicate> sp;
        for (const auto& p : dim_preds) sp.push_back({p.col, p.lo, p.hi});
        struct BuildPart {
          std::vector<int64_t> rows;
          std::vector<std::pair<int64_t, uint32_t>> pairs;
        };
        std::vector<BuildPart> parts(bw);
        std::unordered_set<int64_t> dead;
        HD_RETURN_IF_ERROR(dcsi->SnapshotDeleteBuffer(&dead, m));
        const int ngroups = dcsi->num_row_groups();
        const int stride = je.hash.stride;
        HD_RETURN_IF_ERROR(MorselLoop(
            static_cast<uint64_t>(ngroups) + 1, bw, m,
            ops[opx.join[s]].name + "[build]",
            [&](int slot, uint64_t mi, QueryMetrics* wm) -> Status {
              BuildPart& pt = parts[slot];
              auto handler = [&](const ColumnBatch& b) {
                for (int i = 0; i < b.count; ++i) {
                  const size_t off = pt.rows.size();
                  pt.rows.resize(off + stride, 0);
                  for (size_t ci = 0; ci < dcols.size(); ++ci) {
                    pt.rows[off + dcols[ci]] = b.cols[ci][i];
                  }
                  pt.pairs.emplace_back(pt.rows[off + jc.dim_col],
                                        static_cast<uint32_t>(off / stride));
                }
                return true;
              };
              if (mi < static_cast<uint64_t>(ngroups)) {
                const int g = static_cast<int>(mi);
                return dcsi->ScanGroups(g, g + 1, dcols, sp, handler, wm,
                                        /*need_locators=*/false, &dead);
              }
              return dcsi->ScanDelta(dcols, sp, handler, wm,
                                     /*need_locators=*/false);
            }));
        for (BuildPart& pt : parts) {
          const uint32_t off =
              static_cast<uint32_t>(je.hash.rows.size() / stride);
          je.hash.rows.insert(je.hash.rows.end(), pt.rows.begin(),
                              pt.rows.end());
          for (const auto& [k, v] : pt.pairs) {
            je.hash.build_pairs.emplace_back(k, v + off);
          }
        }
      } else if (!impossible) {
        HD_RETURN_IF_ERROR(ScanDim(
            dim, step.dim_path, dim_preds,
            [&](const int64_t* row) {
              const uint32_t idx =
                  static_cast<uint32_t>(je.hash.rows.size() / je.hash.stride);
              je.hash.rows.insert(je.hash.rows.end(), row,
                                  row + je.hash.stride);
              je.hash.build_pairs.emplace_back(row[jc.dim_col], idx);
            },
            m, ctx.serial_row_overhead_ns));
      }
      // Deterministic kill seam: fires after the build-side scan (latches
      // and any admission pass already held) so tests can prove an error
      // here unwinds without leaking either.
      HD_RETURN_IF_ERROR(EvalFailPoint("exec.join_build", m));
      je.hash.map.Build(je.hash.build_pairs);
      // Build the pushdown Bloom filter from the build keys before they
      // are discarded; an empty build side leaves the filter all-zero
      // (MayContain always false), which is exactly the join's semantics.
      je.hash.bloom.Init(je.hash.build_pairs.size());
      for (const auto& [k, v] : je.hash.build_pairs) {
        (void)v;
        je.hash.bloom.Insert(k);
      }
      je.hash.build_pairs.clear();
      je.hash.build_pairs.shrink_to_fit();
    } else {
      je.nl.table_idx = step.join_idx + 1;
      je.nl.table = dim;
      je.nl.preds = dim_preds;
      const int ncols = dim->num_columns();
      std::vector<int> key_cols;
      std::vector<int> payload_cols;
      bool payload_full = false;
      if (step.dim_path.index_name.empty()) {
        je.nl.tree = dim->primary_btree();
        key_cols = dim->primary_key_cols();
        payload_full = true;
      } else {
        SecondaryIndex* si = dim->FindSecondary(step.dim_path.index_name);
        if (si == nullptr || !si->btree) {
          return Status::NotFound("NL index " + step.dim_path.index_name);
        }
        je.nl.tree = si->btree.get();
        key_cols = si->def.key_cols;
        payload_cols = si->payload_cols;
      }
      if (je.nl.tree == nullptr || key_cols.empty() ||
          key_cols[0] != jc.dim_col) {
        return Status::InvalidArgument(
            "IndexNL join requires a B+ tree leading on the join column");
      }
      je.nl.kw = static_cast<int>(key_cols.size()) + 1;
      je.nl.entry_slot.assign(ncols, -1);
      for (size_t k = 0; k < key_cols.size(); ++k) {
        je.nl.entry_slot[key_cols[k]] = static_cast<int>(k);
      }
      if (payload_full) {
        for (int c = 0; c < ncols; ++c) {
          if (je.nl.entry_slot[c] < 0) je.nl.entry_slot[c] = je.nl.kw + c;
        }
      } else {
        for (size_t pi = 0; pi < payload_cols.size(); ++pi) {
          if (je.nl.entry_slot[payload_cols[pi]] < 0) {
            je.nl.entry_slot[payload_cols[pi]] =
                je.nl.kw + static_cast<int>(pi);
          }
        }
      }
      for (int pk : dim->primary_key_cols()) {
        je.nl.pk_slots.push_back(je.nl.entry_slot[pk]);
      }
      // Needed dim columns: preds + any column referenced downstream.
      std::vector<char> needed(ncols, 0);
      for (const auto& p : dim_preds) needed[p.col] = 1;
      std::vector<ColRef> refs;
      for (const auto& a : q.aggs) {
        if (a.arg) CollectExprCols(*a.arg, &refs);
      }
      for (const auto& g : q.group_by) refs.push_back(g);
      for (const auto& o : q.order_by) refs.push_back(o);
      for (const auto& sc : q.select_cols) refs.push_back(sc);
      for (const auto& r : refs) {
        if (r.table == step.join_idx + 1) needed[r.col] = 1;
      }
      for (int c = 0; c < ncols; ++c) {
        if (needed[c]) {
          je.nl.needed_cols.push_back(c);
          if (je.nl.entry_slot[c] < 0) je.nl.covering = false;
        }
      }
    }
    m->cpu_ns += static_cast<uint64_t>(tstep.ElapsedMs() * 1e6);
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
// Base scan driver.
// ---------------------------------------------------------------------

Status Executor::Impl::DriveBaseScan(int nworkers, const EmitFn& emit) {
  for (const auto& p : base_preds) {
    if (p.impossible) return Status::OK();
  }
  QueryMetrics* m = ScanM();
  const std::string& scan_label = ops[opx.scan].name;

  // Resolve residual predicates per path.
  switch (plan.base.kind) {
    case AccessPath::Kind::kHeapScan: {
      HeapFile* h = base->heap();
      if (h == nullptr) return Status::Internal("no heap primary");
      const uint64_t n = h->num_rows();
      const double row_oh = nworkers > 1 ? ctx.parallel_row_overhead_ns
                                         : ctx.serial_row_overhead_ns;
      auto worker = [&](int w, uint64_t lo, uint64_t hi,
                        QueryMetrics* wm) -> Status {
        uint64_t seen = 0;
        Status ss = h->ScanRange(lo, hi, [&](uint64_t rid, const int64_t* row) {
          ++seen;
          if (!CheckPreds(base_preds, row)) return true;
          return emit(w, static_cast<int64_t>(rid), row);
        }, wm);
        wm->cpu_ns += static_cast<uint64_t>(seen * row_oh);
        return ss;
      };
      if (nworkers <= 1) {
        Timer t;
        Status ss = worker(0, 0, n, m);
        m->cpu_ns += static_cast<uint64_t>(t.ElapsedMs() * 1e6);
        return ss;
      }
      // Morsel = a fixed-size page range; the pool's participants drain
      // and steal morsels instead of owning one static range each.
      constexpr uint64_t kHeapMorselRows = 65536;
      const uint64_t nmorsels = (n + kHeapMorselRows - 1) / kHeapMorselRows;
      std::atomic<bool> stop{false};
      return MorselLoop(
          nmorsels, nworkers, m, scan_label,
          [&](int slot, uint64_t mi, QueryMetrics* wm) -> Status {
            if (stop.load(std::memory_order_relaxed)) return Status::OK();
            uint64_t seen = 0;
            const uint64_t lo = mi * kHeapMorselRows;
            const uint64_t hi = std::min(n, lo + kHeapMorselRows);
            Status ss = h->ScanRange(lo, hi,
                                     [&](uint64_t rid, const int64_t* row) {
                                       ++seen;
                                       if (!CheckPreds(base_preds, row)) {
                                         return true;
                                       }
                                       if (!emit(slot,
                                                 static_cast<int64_t>(rid),
                                                 row)) {
                                         stop.store(true,
                                                    std::memory_order_relaxed);
                                         return false;
                                       }
                                       return true;
                                     },
                                     wm);
            wm->cpu_ns += static_cast<uint64_t>(seen * row_oh);
            return ss;
          });
    }
    case AccessPath::Kind::kBTreeRange:
    case AccessPath::Kind::kBTreeFullScan: {
      BTree* tree;
      std::vector<int> key_cols;
      std::vector<int> payload_cols;
      bool payload_full = false;
      if (plan.base.index_name.empty()) {
        tree = base->primary_btree();
        key_cols = base->primary_key_cols();
        payload_full = true;
      } else {
        SecondaryIndex* si = base->FindSecondary(plan.base.index_name);
        if (si == nullptr || !si->btree) {
          return Status::NotFound("index " + plan.base.index_name);
        }
        tree = si->btree.get();
        key_cols = si->def.key_cols;
        payload_cols = si->payload_cols;
      }
      if (tree == nullptr) return Status::Internal("no btree primary");
      const int kw = static_cast<int>(key_cols.size()) + 1;
      const int ncols = base->num_columns();
      Bound lo, hi;
      if (plan.base.kind == AccessPath::Kind::kBTreeRange) {
        for (int k = 0; k < static_cast<int>(key_cols.size()); ++k) {
          const BoundPred* bp = nullptr;
          for (const auto& p : base_preds) {
            if (p.col == key_cols[k]) bp = &p;
          }
          if (bp == nullptr) break;
          bool bounded_lo = bp->lo != INT64_MIN;
          bool bounded_hi = bp->hi != INT64_MAX;
          if (bounded_lo) lo.key.push_back(bp->lo);
          if (bounded_hi) hi.key.push_back(bp->hi);
          if (!bounded_lo || !bounded_hi || bp->lo != bp->hi) break;
        }
      }
      // Per-entry handler shared by serial/parallel variants.
      std::vector<char> have_template(ncols, 0);
      auto make_handler = [&](int w, PackedRow* rowbuf, QueryMetrics* wm,
                              uint64_t* seen) {
        return [&, w, rowbuf, wm, seen](const int64_t* key,
                                        const int64_t* payload) {
          ++*seen;
          PackedRow& row = *rowbuf;
          if (payload_full) {
            std::copy(payload, payload + ncols, row.begin());
          } else {
            std::vector<char> have = have_template;
            for (size_t k = 0; k < key_cols.size(); ++k) {
              row[key_cols[k]] = key[k];
              have[key_cols[k]] = 1;
            }
            for (size_t pi = 0; pi < payload_cols.size(); ++pi) {
              row[payload_cols[pi]] = payload[pi];
              have[payload_cols[pi]] = 1;
            }
            // Check covered predicates before paying for a lookup.
            for (const auto& p : base_preds) {
              if (have[p.col]) {
                const int64_t v = row[p.col];
                if (v < p.lo || v > p.hi) return true;
              }
            }
            bool missing = false;
            for (int c = 0; c < ncols; ++c) {
              if (!have[c]) { missing = true; break; }
            }
            if (missing) {
              std::vector<int64_t> pk_hint;
              for (int pk : base->primary_key_cols()) pk_hint.push_back(row[pk]);
              PackedRow full;
              Status fs = base->FetchRow(key[kw - 1], pk_hint, &full, wm);
              if (!fs.ok()) {
                // A failed read fails the scan; a vanished row is skipped.
                if (!fs.IsIoError()) return true;
                RecordSideError(std::move(fs));
                return false;
              }
              row = full;
            }
          }
          if (!CheckPreds(base_preds, row.data())) return true;
          return emit(w, key[kw - 1], row.data());
        };
      };
      if (nworkers <= 1) {
        Timer t;
        PackedRow rowbuf(ncols);
        uint64_t seen = 0;
        Status ss = tree->Scan(lo, hi, make_handler(0, &rowbuf, m, &seen), m);
        m->cpu_ns += static_cast<uint64_t>(t.ElapsedMs() * 1e6) +
                     static_cast<uint64_t>(seen * ctx.serial_row_overhead_ns);
        return ss;
      }
      // Morsel = a small batch of leaves (16 morsels per participant at
      // the initial split keeps stealing granular without per-leaf
      // scheduling overhead).
      std::vector<LeafHandle> leaves;
      HD_RETURN_IF_ERROR(tree->CollectLeaves(lo, hi, m, &leaves));
      const uint64_t nleaves = leaves.size();
      const uint64_t chunk = std::max<uint64_t>(
          1, nleaves / (16ull * static_cast<uint64_t>(nworkers)));
      const uint64_t nmorsels = (nleaves + chunk - 1) / chunk;
      std::vector<PackedRow> rowbufs(nworkers, PackedRow(ncols));
      return MorselLoop(
          nmorsels, nworkers, m, scan_label,
          [&](int slot, uint64_t mi, QueryMetrics* wm) -> Status {
            uint64_t seen = 0;
            auto handler = make_handler(slot, &rowbufs[slot], wm, &seen);
            const size_t b = static_cast<size_t>(mi * chunk);
            const size_t e =
                std::min<size_t>(nleaves, b + static_cast<size_t>(chunk));
            Status ss;
            for (size_t li = b; li < e && ss.ok(); ++li) {
              ss = tree->ScanLeaf(leaves[li], lo, hi, handler, wm);
            }
            wm->cpu_ns += static_cast<uint64_t>(
                seen * ctx.parallel_row_overhead_ns);
            return ss;
          });
    }
    case AccessPath::Kind::kCsiScan: {
      ColumnStoreIndex* csi;
      if (plan.base.index_name.empty()) {
        csi = base->primary_csi();
      } else {
        SecondaryIndex* si = base->FindSecondary(plan.base.index_name);
        if (si == nullptr || !si->csi) {
          return Status::NotFound("csi " + plan.base.index_name);
        }
        csi = si->csi.get();
      }
      if (csi == nullptr) return Status::Internal("no csi");
      const int ncols = base->num_columns();
      // Only decode columns the query touches; the wide row's other slots
      // stay unset and are never read downstream.
      const std::vector<int>& cols = needed_base_cols;
      const int ncneed = static_cast<int>(cols.size());
      std::vector<SegPredicate> sp;
      for (const auto& p : base_preds) sp.push_back({p.col, p.lo, p.hi});
      // Locators (row ids) are only needed when a transaction wants per-row
      // locks/versions or DML collects row references.
      const bool need_locs = ctx.txn != nullptr || q.kind != Query::Kind::kSelect;
      // Bloom pushdown: every hash join's build-side filter runs inside
      // the scan on the decoded join-key vector, so rows that cannot join
      // are dropped before the other columns are gathered. Checks are
      // charged to the owning join's operator block.
      const int driving = DrivingStepIndex();
      std::vector<ScanKeyFilter> kfs;
      for (size_t s = 0; s < joins.size(); ++s) {
        if (static_cast<int>(s) == driving) continue;
        const JoinExec& je = joins[s];
        if (je.method != JoinStep::Method::kHash || je.hash.bloom.empty()) {
          continue;
        }
        kfs.push_back(ScanKeyFilter{q.joins[plan.joins[s].join_idx].base_col,
                                    &je.hash.bloom, OpM(opx.join[s])});
      }
      const std::vector<ScanKeyFilter>* kfp = kfs.empty() ? nullptr : &kfs;
      auto make_batch_handler = [&](int w, PackedRow* rowbuf) {
        return [&, w, rowbuf](const ColumnBatch& b) {
          PackedRow& row = *rowbuf;
          for (int i = 0; i < b.count; ++i) {
            const uint32_t pi =
                b.sel != nullptr ? b.sel[i] : static_cast<uint32_t>(i);
            for (int c = 0; c < ncneed; ++c) row[cols[c]] = b.cols[c][pi];
            const int64_t rid = b.locators != nullptr ? b.locators[pi] : -1;
            if (!emit(w, rid, row.data())) return false;
          }
          return true;
        };
      };
      const int ngroups = csi->num_row_groups();
      if (use_shared_scan) {
        // Cooperative pass over the row groups; the delta store is always
        // scanned privately (row-mode, cheap, not worth coordinating).
        Timer t;
        PackedRow rowbuf(ncols);
        auto handler = make_batch_handler(0, &rowbuf);
        Status ss =
            ctx.scan_scheduler->Scan(csi, cols, sp, handler, m, need_locs);
        if (ss.ok()) ss = csi->ScanDelta(cols, sp, handler, m, need_locs);
        m->cpu_ns += static_cast<uint64_t>(t.ElapsedMs() * 1e6);
        return ss;
      }
      if (nworkers <= 1) {
        Timer t;
        PackedRow rowbuf(ncols);
        auto handler = make_batch_handler(0, &rowbuf);
        Status ss = csi->ScanGroups(0, ngroups, cols, sp, handler, m,
                                    need_locs, nullptr, kfp);
        if (ss.ok()) {
          ss = csi->ScanDelta(cols, sp, handler, m, need_locs, kfp);
        }
        m->cpu_ns += static_cast<uint64_t>(t.ElapsedMs() * 1e6);
        return ss;
      }
      // Morsel = one row group (+ one trailing morsel for the delta
      // store). The delete-buffer snapshot is taken once and shared so
      // per-group morsels do not re-scan the delete buffer.
      std::unordered_set<int64_t> dead;
      HD_RETURN_IF_ERROR(csi->SnapshotDeleteBuffer(&dead, m));
      std::vector<PackedRow> rowbufs(nworkers, PackedRow(ncols));
      std::atomic<bool> stop{false};
      return MorselLoop(
          static_cast<uint64_t>(ngroups) + 1, nworkers, m, scan_label,
          [&](int slot, uint64_t mi, QueryMetrics* wm) -> Status {
            if (stop.load(std::memory_order_relaxed)) return Status::OK();
            auto inner = make_batch_handler(slot, &rowbufs[slot]);
            auto handler = [&](const ColumnBatch& b) {
              if (!inner(b)) {
                stop.store(true, std::memory_order_relaxed);
                return false;
              }
              return true;
            };
            if (mi < static_cast<uint64_t>(ngroups)) {
              const int g = static_cast<int>(mi);
              return csi->ScanGroups(g, g + 1, cols, sp, handler, wm,
                                     need_locs, &dead, kfp);
            }
            return csi->ScanDelta(cols, sp, handler, wm, need_locs, kfp);
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
      int64_t* dim_wide = wide + je.dim_offset;
      if (nd.covering) {
        for (int c : nd.needed_cols) {
          const int slot = nd.entry_slot[c];
          dim_wide[c] = slot < nd.kw ? ekey[slot] : payload[slot - nd.kw];
        }
      } else {
        std::vector<int64_t> pk_hint;
        for (int s : nd.pk_slots) {
          pk_hint.push_back(s < nd.kw ? ekey[s] : payload[s - nd.kw]);
        }
        PackedRow full;
        Status fs = nd.table->FetchRow(ekey[nd.kw - 1], pk_hint, &full, wm);
        if (!fs.ok()) {
          if (!fs.IsIoError()) return true;  // vanished row: skip
          RecordSideError(std::move(fs));
          cont = false;
          return false;
        }
        std::copy(full.begin(), full.end(), dim_wide);
      }
      // Dim residual predicates (shifted to wide coordinates).
      for (const auto& p : nd.preds) {
        const int64_t v = dim_wide[p.col];
        if (v < p.lo || v > p.hi) return true;
      }
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
  Status scan_status;
  if (plan.driving_join >= 0 && driving_step >= 0) {
    // Dimension-driven hybrid plan: scan the (filtered) driving dimension
    // as the outer side, seek the base table's B+ tree per dim row.
    BTree* tree = nullptr;
    std::vector<int> key_cols;
    std::vector<int> payload_cols;
    bool payload_full = false;
    if (plan.base.index_name.empty()) {
      tree = base->primary_btree();
      key_cols = base->primary_key_cols();
      payload_full = true;
    } else {
      SecondaryIndex* si = base->FindSecondary(plan.base.index_name);
      if (si == nullptr || !si->btree) {
        return Status::NotFound("index " + plan.base.index_name);
      }
      tree = si->btree.get();
      key_cols = si->def.key_cols;
      payload_cols = si->payload_cols;
    }
    const JoinClause& jc = q.joins[plan.driving_join];
    if (tree == nullptr || key_cols.empty() || key_cols[0] != jc.base_col) {
      return Status::InvalidArgument(
          "dim-driven plan needs a base B+ tree leading on the join column");
    }
    Table* dim = L.tables[plan.driving_join + 1];
    const int dim_off = L.offset[plan.driving_join + 1];
    std::vector<BoundPred> dim_preds = BindPreds(*dim, jc.dim.preds);
    const int ncols = base->num_columns();
    const int kw = static_cast<int>(key_cols.size()) + 1;
    Timer t;
    PackedRow rowbuf(ncols);
    int64_t* wide = wide_bufs[0].data();
    uint64_t fact_entries = 0;
    uint64_t dim_rows = 0;
    // Dim-side scan charges land on the DimDriver node; base B+ tree seeks
    // (and residual fetches) on the scan node.
    QueryMetrics* dm = OpM(opx.join[driving_step]);
    QueryMetrics* sm = ScanM();
    scan_status = ScanDim(
        dim, plan.joins[driving_step].dim_path, dim_preds,
        [&](const int64_t* dimrow) {
          ++dim_rows;
          std::copy(dimrow, dimrow + dim->num_columns(), wide + dim_off);
          const int64_t key = dimrow[jc.dim_col];
          Status ps = tree->Scan(
              Bound::Inclusive({key}), Bound::Inclusive({key}),
              [&](const int64_t* ekey, const int64_t* payload) {
                ++fact_entries;
                if (payload_full) {
                  std::copy(payload, payload + ncols, rowbuf.begin());
                } else {
                  std::vector<char> have(ncols, 0);
                  for (size_t k = 0; k < key_cols.size(); ++k) {
                    rowbuf[key_cols[k]] = ekey[k];
                    have[key_cols[k]] = 1;
                  }
                  for (size_t pi = 0; pi < payload_cols.size(); ++pi) {
                    rowbuf[payload_cols[pi]] = payload[pi];
                    have[payload_cols[pi]] = 1;
                  }
                  bool missing = false;
                  for (int c = 0; c < ncols; ++c) {
                    if (!have[c]) { missing = true; break; }
                  }
                  if (missing) {
                    std::vector<int64_t> pk_hint;
                    for (int pk : base->primary_key_cols()) {
                      pk_hint.push_back(rowbuf[pk]);
                    }
                    PackedRow full;
                    Status fs = base->FetchRow(ekey[kw - 1], pk_hint, &full, sm);
                    if (!fs.ok()) {
                      if (!fs.IsIoError()) return true;  // vanished row
                      RecordSideError(std::move(fs));
                      return false;
                    }
                    rowbuf = full;
                  }
                }
                if (!CheckPreds(base_preds, rowbuf.data())) return true;
                std::copy(rowbuf.begin(), rowbuf.end(), wide);
                base_out[0]++;
                return pipeline(0, wide, ekey[kw - 1], 0);
              },
              sm);
          if (!ps.ok()) RecordSideError(std::move(ps));
        },
        dm, ctx.serial_row_overhead_ns);
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
    ColumnStoreIndex* csi = plan.base.index_name.empty()
                                ? base->primary_csi()
                                : base->FindSecondary(plan.base.index_name)
                                      ->csi.get();
    if (csi == nullptr) return Status::Internal("no csi");
    const std::vector<int>& cols = needed_base_cols;
    const int ncneed = static_cast<int>(cols.size());
    std::vector<int> colslot(base->num_columns(), -1);
    for (int i = 0; i < ncneed; ++i) colslot[cols[i]] = i;
    // Batch-column index of each step's base join key (base wide slots
    // coincide with base column ids — the base is table 0 at offset 0).
    std::vector<int> key_ci(nsteps, -1);
    for (size_t s = 0; s < nsteps; ++s) {
      key_ci[s] = colslot[joins[s].base_join_slot];
    }
    std::vector<SegPredicate> sp;
    for (const auto& p : base_preds) {
      if (p.impossible) sp.push_back({p.col, 1, 0});
      sp.push_back({p.col, p.lo, p.hi});
    }
    // Locators only when a transaction pays per-row lock/version costs.
    const bool need_locs = ctx.txn != nullptr;
    // Push every build-side Bloom filter into the scan.
    std::vector<ScanKeyFilter> kfs;
    for (size_t s = 0; s < nsteps; ++s) {
      if (joins[s].hash.bloom.empty()) continue;
      kfs.push_back(ScanKeyFilter{joins[s].base_join_slot,
                                  &joins[s].hash.bloom, OpM(opx.join[s])});
    }
    const std::vector<ScanKeyFilter>* kfp = kfs.empty() ? nullptr : &kfs;
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
    const int ngroups = csi->num_row_groups();
    QueryMetrics* sm = ScanM();
    if (nworkers <= 1) {
      Timer t;
      auto handler = make_handler(0);
      scan_status = csi->ScanGroups(0, ngroups, cols, sp, handler, sm,
                                    need_locs, nullptr, kfp);
      if (scan_status.ok()) {
        scan_status = csi->ScanDelta(cols, sp, handler, sm, need_locs, kfp);
      }
      sm->cpu_ns += static_cast<uint64_t>(t.ElapsedMs() * 1e6);
    } else {
      std::unordered_set<int64_t> dead;
      scan_status = csi->SnapshotDeleteBuffer(&dead, sm);
      if (scan_status.ok()) {
        std::atomic<bool> stop{false};
        scan_status = MorselLoop(
            static_cast<uint64_t>(ngroups) + 1, nworkers, sm,
            ops[opx.scan].name,
            [&](int slot, uint64_t mi, QueryMetrics* wm) -> Status {
              if (stop.load(std::memory_order_relaxed)) return Status::OK();
              auto inner = make_handler(slot);
              auto handler = [&](const ColumnBatch& b) {
                if (!inner(b)) {
                  stop.store(true, std::memory_order_relaxed);
                  return false;
                }
                return true;
              };
              if (mi < static_cast<uint64_t>(ngroups)) {
                const int g = static_cast<int>(mi);
                return csi->ScanGroups(g, g + 1, cols, sp, handler, wm,
                                       need_locs, &dead, kfp);
              }
              return csi->ScanDelta(cols, sp, handler, wm, need_locs, kfp);
            });
      }
    }
  } else if (fast_group) {
    // Grouped aggregation directly over decoded batches: no wide-row
    // materialization, reusable key buffer, per-worker maps (merged in the
    // finish phase), grace-spill past the grant.
    ColumnStoreIndex* csi = plan.base.index_name.empty()
                                ? base->primary_csi()
                                : base->FindSecondary(plan.base.index_name)
                                      ->csi.get();
    if (csi == nullptr) return Status::Internal("no csi");
    std::vector<int> needed;
    std::vector<char> need_flag(base->num_columns(), 0);
    for (const auto& a : aggs) {
      if (a.has_arg) {
        std::vector<ColRef> refs;
        CollectExprCols(a.arg, &refs);
        for (const auto& r : refs) need_flag[r.col] = 1;
      }
    }
    for (const auto& g : q.group_by) need_flag[g.col] = 1;
    for (int c = 0; c < base->num_columns(); ++c) {
      if (need_flag[c]) needed.push_back(c);
    }
    std::vector<int> slot_of_col(base->num_columns(), -1);
    for (size_t i = 0; i < needed.size(); ++i) slot_of_col[needed[i]] = i;
    std::vector<int> group_cis;  // batch column index per group col
    for (const auto& g : q.group_by) group_cis.push_back(slot_of_col[g.col]);
    std::vector<SegPredicate> sp;
    for (const auto& p : base_preds) {
      if (p.impossible) sp.push_back({p.col, 1, 0});
      sp.push_back({p.col, p.lo, p.hi});
    }
    const std::unordered_set<int64_t>* delete_snapshot = nullptr;
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
    auto batch_worker = [&](int w, int gb, int ge, QueryMetrics* wm) -> Status {
      auto handler = make_handler(w);
      // gb < 0 selects the delta store (scheduled as its own morsel).
      if (gb < 0) {
        return csi->ScanDelta(needed, sp, handler, wm,
                              /*need_locators=*/false);
      }
      return csi->ScanGroups(gb, ge, needed, sp, handler, wm,
                             /*need_locators=*/false, delete_snapshot);
    };
    const int ngroups2 = csi->num_row_groups();
    QueryMetrics* sm = ScanM();
    if (use_shared_scan) {
      Timer t;
      auto handler = make_handler(0);
      scan_status =
          ctx.scan_scheduler->Scan(csi, needed, sp, handler, sm,
                                   /*need_locators=*/false);
      if (scan_status.ok()) {
        scan_status = csi->ScanDelta(needed, sp, handler, sm,
                                     /*need_locators=*/false);
      }
      sm->cpu_ns += static_cast<uint64_t>(t.ElapsedMs() * 1e6);
    } else if (nworkers <= 1) {
      Timer t;
      scan_status = batch_worker(0, 0, ngroups2, sm);
      if (scan_status.ok()) scan_status = batch_worker(0, -1, -1, sm);
      sm->cpu_ns += static_cast<uint64_t>(t.ElapsedMs() * 1e6);
    } else {
      std::unordered_set<int64_t> dead;
      scan_status = csi->SnapshotDeleteBuffer(&dead, sm);
      if (scan_status.ok()) {
        delete_snapshot = &dead;
        scan_status = MorselLoop(
            static_cast<uint64_t>(ngroups2) + 1, nworkers, sm,
            ops[opx.scan].name,
            [&](int slot, uint64_t mi, QueryMetrics* wm) -> Status {
              if (mi < static_cast<uint64_t>(ngroups2)) {
                const int g = static_cast<int>(mi);
                return batch_worker(slot, g, g + 1, wm);
              }
              return batch_worker(slot, -1, -1, wm);
            });
      }
    }
  } else if (fast_agg) {
    // Identify the single-int-column sums we can add without decode.
    ColumnStoreIndex* csi = plan.base.index_name.empty()
                                ? base->primary_csi()
                                : base->FindSecondary(plan.base.index_name)
                                      ->csi.get();
    if (csi == nullptr) return Status::Internal("no csi");
    std::vector<int> needed;
    std::vector<char> need_flag(base->num_columns(), 0);
    for (const auto& a : aggs) {
      if (a.has_arg) {
        std::vector<ColRef> refs;
        CollectExprCols(a.arg, &refs);
        for (const auto& r : refs) need_flag[r.col] = 1;
      }
    }
    for (int c = 0; c < base->num_columns(); ++c) {
      if (need_flag[c]) needed.push_back(c);
    }
    std::vector<int> slot_of_col(base->num_columns(), -1);
    for (size_t i = 0; i < needed.size(); ++i) slot_of_col[needed[i]] = i;
    std::vector<SegPredicate> sp;
    for (const auto& p : base_preds) {
      if (p.impossible) sp.push_back({p.col, 1, 0});
      sp.push_back({p.col, p.lo, p.hi});
    }
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
    }
    const std::unordered_set<int64_t>* delete_snapshot = nullptr;
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
    auto batch_worker = [&](int w, int gb, int ge, QueryMetrics* wm) -> Status {
      auto handler = make_handler(w);
      // gb < 0 selects the delta store (scheduled as its own morsel).
      if (gb < 0) {
        return csi->ScanDelta(needed, sp, handler, wm,
                              /*need_locators=*/false);
      }
      for (int g2 = gb; g2 < ge; ++g2) {
        // A row group answered entirely in the encoded domain never
        // reaches the decode handler (Fig. 4 aggregate pushdown).
        uint64_t pr = 0;
        if (!pspecs.empty() &&
            csi->TryPushdownAggregates(g2, sp, pspecs, pacc[w].data(),
                                       delete_snapshot, wm, &pr)) {
          pushed_rows[w] += pr;
          continue;
        }
        HD_RETURN_IF_ERROR(csi->ScanGroups(g2, g2 + 1, needed, sp, handler,
                                           wm, /*need_locators=*/false,
                                           delete_snapshot));
      }
      return Status::OK();
    };
    const int ngroups = csi->num_row_groups();
    QueryMetrics* sm = ScanM();
    // Snapshot the delete buffer once up front (shared across workers and
    // across the now-per-group ScanGroups calls).
    std::unordered_set<int64_t> dead;
    scan_status = csi->SnapshotDeleteBuffer(&dead, sm);
    if (scan_status.ok()) {
      delete_snapshot = &dead;
      if (use_shared_scan) {
        Timer t;
        auto handler = make_handler(0);
        scan_status = ctx.scan_scheduler->Scan(csi, needed, sp, handler, sm,
                                               /*need_locators=*/false);
        if (scan_status.ok()) {
          scan_status = csi->ScanDelta(needed, sp, handler, sm,
                                       /*need_locators=*/false);
        }
        sm->cpu_ns += static_cast<uint64_t>(t.ElapsedMs() * 1e6);
      } else if (nworkers <= 1) {
        Timer t;
        scan_status = batch_worker(0, 0, ngroups, sm);
        if (scan_status.ok()) scan_status = batch_worker(0, -1, -1, sm);
        sm->cpu_ns += static_cast<uint64_t>(t.ElapsedMs() * 1e6);
      } else {
        scan_status = MorselLoop(
            static_cast<uint64_t>(ngroups) + 1, nworkers, sm,
            ops[opx.scan].name,
            [&](int slot, uint64_t mi, QueryMetrics* wm) -> Status {
              if (mi < static_cast<uint64_t>(ngroups)) {
                const int g = static_cast<int>(mi);
                return batch_worker(slot, g, g + 1, wm);
              }
              return batch_worker(slot, -1, -1, wm);
            });
      }
    }
  } else {
    scan_status = DriveBaseScan(nworkers, [&](int w, int64_t rid,
                                              const int64_t* row) {
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
    if (plan.explicit_sort && !sort_pos.empty()) {
      // Build row index and sort it.
      std::vector<uint32_t> idx(total_rows);
      for (size_t i = 0; i < total_rows; ++i) idx[i] = static_cast<uint32_t>(i);
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
      // Decode in sorted order.
      size_t out_n = total_rows;
      if (q.limit >= 0) out_n = std::min<size_t>(out_n, q.limit);
      res.row_count = out_n;
      const size_t matn =
          std::min<size_t>(out_n, QueryResult::kMaxMaterializedRows);
      for (size_t i = 0; i < matn; ++i) {
        Row r;
        for (size_t p2 = 0; p2 < q.select_cols.size() ||
                            (q.select_cols.empty() && p2 < stride);
             ++p2) {
          const ColRef& ref = proj_refs[p2];
          r.push_back(L.tables[ref.table]->UnpackValue(
              ref.col, all[idx[i] * stride + p2]));
        }
        res.rows.push_back(std::move(r));
      }
    } else {
      size_t out_n = total_rows;
      if (q.limit >= 0) out_n = std::min<size_t>(out_n, q.limit);
      res.row_count = out_n;
      const size_t matn =
          std::min<size_t>(out_n, QueryResult::kMaxMaterializedRows);
      const size_t nsel = q.select_cols.empty() ? stride : q.select_cols.size();
      for (size_t i = 0; i < matn; ++i) {
        Row r;
        for (size_t p2 = 0; p2 < nsel; ++p2) {
          const ColRef& ref = proj_refs[p2];
          r.push_back(
              L.tables[ref.table]->UnpackValue(ref.col, all[i * stride + p2]));
        }
        res.rows.push_back(std::move(r));
      }
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
  // charges flow through DriveBaseScan to the scan node.
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
  Status s = DriveBaseScan(1, [&](int, int64_t rid, const int64_t* row) {
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
