#include "optimizer/optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hd {

namespace {

struct PackedPred {
  int col;
  int64_t lo;
  int64_t hi;
  double sel;
  bool impossible;
};

std::vector<PackedPred> BindAndEstimate(const Table& t,
                                        const std::vector<Pred>& preds) {
  std::vector<PackedPred> out;
  for (const auto& p : preds) {
    PackedPred b{p.col, INT64_MIN, INT64_MAX, 1.0, false};
    if (p.is_equality()) {
      bool found = true;
      int64_t v = t.PackBound(p.col, *p.lo, 0, &found);
      if (!found) {
        b.impossible = true;
      } else {
        b.lo = b.hi = v;
      }
    } else {
      if (p.lo.has_value()) {
        bool found = true;
        int64_t v = t.PackBound(p.col, *p.lo, +1, &found);
        b.lo = (p.lo_incl || !found) ? v : v + 1;
      }
      if (p.hi.has_value()) {
        bool found = true;
        int64_t v = t.PackBound(p.col, *p.hi, -1, &found);
        b.hi = (p.hi_incl || !found) ? v : v - 1;
      }
      if (b.lo > b.hi) b.impossible = true;
    }
    if (b.impossible) {
      b.sel = 0.0;
    } else if (t.stats().valid() && p.col < static_cast<int>(t.stats().columns.size())) {
      const ColumnStats& cs = t.stats().columns[p.col];
      b.sel = (b.lo == b.hi) ? cs.SelectivityEq(b.lo)
                             : cs.SelectivityRange(b.lo, b.hi);
    } else {
      b.sel = (b.lo == b.hi) ? 0.01 : 0.1;  // fallback guesses
    }
    out.push_back(b);
  }
  return out;
}

double CombinedSel(const std::vector<PackedPred>& preds) {
  double s = 1.0;
  for (const auto& p : preds) s *= p.sel;
  return s;
}

double SeqReadMs(uint64_t bytes, const DiskConfig& d) {
  return bytes / (d.read_bw_mb_s * 1024.0 * 1024.0) * 1000.0 +
         d.random_latency_ms;
}

double RandomReadMs(double accesses, uint64_t bytes, const DiskConfig& d) {
  return accesses * d.random_latency_ms +
         bytes / (d.read_bw_mb_s * 1024.0 * 1024.0) * 1000.0;
}

}  // namespace

double Optimizer::PredSelectivity(const Table& t,
                                  const std::vector<Pred>& preds) const {
  return CombinedSel(BindAndEstimate(t, preds));
}

// One candidate access path with its cost decomposition.
struct Optimizer::PathCand {
  AccessPath path;
  double scan_rows = 0;   // rows the scan touches
  double out_rows = 0;    // rows surviving all table preds
  double cpu_ms = 0;         // at the parallel row rate
  double cpu_ms_serial = 0;  // at the serial row rate
  double io_ms = 0;
  bool covering = true;
  bool parallel_ok = true;
  std::vector<int> order_cols;  // provided sort order (table columns)

  /// Serial-execution estimate (used for dimension scans, which run on
  /// the coordinating thread).
  double total(bool cold) const { return cpu_ms_serial + (cold ? io_ms : 0.0); }
};

std::vector<Optimizer::PathCand> Optimizer::EnumeratePaths(
    const Table& t, const TableConfig& tc, const std::vector<Pred>& preds,
    const std::vector<int>& needed_cols, const PlanOptions& opts) const {
  (void)opts;
  std::vector<PathCand> cands;
  const DiskConfig& disk = db_->disk()->config();
  const double n = static_cast<double>(tc.primary_stats.rows
                                           ? tc.primary_stats.rows
                                           : t.num_rows());
  std::vector<PackedPred> bp = BindAndEstimate(t, preds);
  const double sel_all = CombinedSel(bp);
  const double out_rows = n * sel_all;
  const int ncols = t.num_columns();
  const int row_width = ncols * 8;

  auto pred_on = [&](int col) -> const PackedPred* {
    for (const auto& p : bp) {
      if (p.col == col) return &p;
    }
    return nullptr;
  };

  auto add_btree = [&](const std::string& index_name,
                       const std::vector<int>& key_cols,
                       const std::vector<int>& payload_cols, bool payload_full,
                       uint64_t size_bytes) {
    // Range candidate: bound leading key columns by predicates.
    double sel_prefix = 1.0;
    int seek_cols = 0;
    for (int k = 0; k < static_cast<int>(key_cols.size()); ++k) {
      const PackedPred* p = pred_on(key_cols[k]);
      if (p == nullptr) break;
      sel_prefix *= p->sel;
      ++seek_cols;
      if (p->lo != p->hi) break;  // range pred ends the prefix
    }
    PathCand c;
    c.path.kind = seek_cols > 0 ? AccessPath::Kind::kBTreeRange
                                : AccessPath::Kind::kBTreeFullScan;
    c.path.index_name = index_name;
    c.path.seek_cols = seek_cols;
    c.scan_rows = std::max(1.0, n * sel_prefix);
    c.out_rows = out_rows;
    c.order_cols = key_cols;
    // Coverage check.
    c.covering = true;
    if (!payload_full) {
      for (int need : needed_cols) {
        bool ok = std::find(key_cols.begin(), key_cols.end(), need) !=
                      key_cols.end() ||
                  std::find(payload_cols.begin(), payload_cols.end(), need) !=
                      payload_cols.end();
        if (!ok) {
          c.covering = false;
          break;
        }
      }
    }
    const int entry_width =
        static_cast<int>(key_cols.size() + 1 +
                         (payload_full ? ncols : payload_cols.size())) * 8;
    c.cpu_ms = (p_.seek_ns + c.scan_rows * p_.scan_row_parallel_ns) / 1e6;
    c.cpu_ms_serial =
        (p_.seek_ns + c.scan_rows * p_.scan_row_serial_ns) / 1e6;
    c.io_ms = RandomReadMs(1, static_cast<uint64_t>(c.scan_rows * entry_width),
                           disk);
    if (!c.covering) {
      const double lookup_cpu = c.out_rows * p_.lookup_ns / 1e6;
      c.cpu_ms += lookup_cpu;
      c.cpu_ms_serial += lookup_cpu;
      c.io_ms += RandomReadMs(c.out_rows, static_cast<uint64_t>(
                                              c.out_rows * row_width), disk);
    }
    // Full scans read the whole leaf level.
    if (seek_cols == 0) {
      c.io_ms = SeqReadMs(size_bytes, disk);
    }
    c.parallel_ok = true;
    cands.push_back(std::move(c));
  };

  auto add_csi = [&](const std::string& index_name,
                     const IndexStatsInfo& stats, int sort_col) {
    PathCand c;
    c.path.kind = AccessPath::Kind::kCsiScan;
    c.path.index_name = index_name;
    c.scan_rows = n;
    c.out_rows = out_rows;
    // Sorted columnstore (Section 4.5 extension): a predicate on the sort
    // column eliminates all but the qualifying segments.
    double scan_frac = 1.0;
    if (sort_col >= 0) {
      const PackedPred* p = pred_on(sort_col);
      if (p != nullptr) {
        scan_frac = std::clamp(p->sel + p_.csi_rowgroup_rows / std::max(1.0, n),
                               0.0, 1.0);
        c.scan_rows = std::max(1.0, n * scan_frac);
      }
    }
    // Columns actually decoded: needed + predicate columns.
    std::vector<char> touch(ncols, 0);
    for (int need : needed_cols) touch[need] = 1;
    for (const auto& p : bp) touch[p.col] = 1;
    int ntouch = 0;
    uint64_t bytes = 0;
    for (int cidx = 0; cidx < ncols; ++cidx) {
      if (!touch[cidx]) continue;
      ++ntouch;
      if (cidx < static_cast<int>(stats.column_bytes.size())) {
        bytes += stats.column_bytes[cidx];
      } else {
        bytes += stats.size_bytes / std::max(1, ncols);
      }
    }
    c.cpu_ms =
        c.scan_rows * (p_.batch_cpu_ns + p_.batch_col_ns * ntouch) / 1e6;
    c.cpu_ms_serial = c.cpu_ms;  // batch mode has no exchange overhead
    c.io_ms = SeqReadMs(static_cast<uint64_t>(bytes * scan_frac), disk);
    c.parallel_ok = true;
    cands.push_back(std::move(c));
  };

  switch (tc.primary) {
    case PrimaryKind::kHeap: {
      PathCand c;
      c.path.kind = AccessPath::Kind::kHeapScan;
      c.scan_rows = n;
      c.out_rows = out_rows;
      c.cpu_ms = n * p_.scan_row_parallel_ns / 1e6;
      c.cpu_ms_serial = n * p_.scan_row_serial_ns / 1e6;
      c.io_ms = SeqReadMs(tc.primary_stats.size_bytes, disk);
      cands.push_back(std::move(c));
      break;
    }
    case PrimaryKind::kBTree:
      add_btree("", tc.primary_keys, {}, /*payload_full=*/true,
                tc.primary_stats.size_bytes);
      break;
    case PrimaryKind::kColumnStore:
      add_csi("", tc.primary_stats, /*sort_col=*/-1);
      break;
  }
  for (const auto& s : tc.secondaries) {
    if (s.def.is_btree()) {
      // Payload includes declared includes + pk columns (Table's policy).
      std::vector<int> payload = s.def.included_cols;
      if (tc.primary == PrimaryKind::kBTree) {
        for (int pk : tc.primary_keys) {
          if (std::find(payload.begin(), payload.end(), pk) == payload.end() &&
              std::find(s.def.key_cols.begin(), s.def.key_cols.end(), pk) ==
                  s.def.key_cols.end()) {
            payload.push_back(pk);
          }
        }
      }
      add_btree(s.def.name, s.def.key_cols, payload, false,
                s.stats.size_bytes);
    } else {
      add_csi(s.def.name, s.stats,
              s.def.key_cols.empty() ? -1 : s.def.key_cols[0]);
    }
  }
  return cands;
}

namespace {

/// Columns a plan must provide from query table `table`: what the
/// statement reads (ColumnsRead) plus the table's predicate columns.
std::vector<int> NeededCols(const Query& q, int table, const Table& t,
                            const std::vector<Pred>& preds) {
  std::vector<int> out = ColumnsRead(q, table, t.num_columns());
  for (const auto& p : preds) out.push_back(p.col);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool OrderCovers(const std::vector<int>& provided, const std::vector<ColRef>& want) {
  if (want.empty()) return false;
  if (provided.size() < want.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].table != 0 || provided[i] != want[i].col) return false;
  }
  return true;
}

}  // namespace

Result<Optimizer::PlanResult> Optimizer::Plan(const Query& q,
                                              const Configuration& cfg,
                                              const PlanOptions& opts) const {
  Table* base = db_->GetTable(q.base.table);
  if (base == nullptr) return Status::NotFound("table " + q.base.table);
  const TableConfig* tc = cfg.Find(q.base.table);
  if (tc == nullptr) return Status::NotFound("config for " + q.base.table);
  const bool cold = opts.cold;
  const DiskConfig& disk = db_->disk()->config();
  const int max_dop = opts.max_dop > 0 ? opts.max_dop : p_.max_dop;

  const std::vector<int> needed = NeededCols(q, 0, *base, q.base.preds);
  std::vector<PathCand> base_cands =
      EnumeratePaths(*base, *tc, q.base.preds, needed, opts);
  if (base_cands.empty()) return Status::Internal("no access path");

  // Dimension info shared by all alternatives.
  struct DimInfo {
    Table* table;
    const TableConfig* tc;
    double rows;        // total
    double out_rows;    // after dim preds
    std::vector<PathCand> cands;  // access paths for the dim
    int best = 0;                 // cheapest candidate index
    double best_cost = 0;
    // Index-NL support: secondary/primary btree leading on the join col.
    bool has_nl_index = false;
    AccessPath nl_path;
    bool nl_covering = false;
  };
  std::vector<DimInfo> dims;
  for (size_t j = 0; j < q.joins.size(); ++j) {
    const JoinClause& jc = q.joins[j];
    DimInfo di;
    di.table = db_->GetTable(jc.dim.table);
    if (di.table == nullptr) return Status::NotFound("table " + jc.dim.table);
    di.tc = cfg.Find(jc.dim.table);
    if (di.tc == nullptr) return Status::NotFound("config " + jc.dim.table);
    di.rows = static_cast<double>(di.tc->primary_stats.rows
                                      ? di.tc->primary_stats.rows
                                      : di.table->num_rows());
    di.out_rows =
        std::max(1.0, di.rows * PredSelectivity(*di.table, jc.dim.preds));
    std::vector<int> dim_needed =
        NeededCols(q, static_cast<int>(j) + 1, *di.table, jc.dim.preds);
    di.cands = EnumeratePaths(*di.table, *di.tc, jc.dim.preds, dim_needed, opts);
    di.best_cost = 1e300;
    for (size_t ci = 0; ci < di.cands.size(); ++ci) {
      const double c = di.cands[ci].total(cold);
      if (c < di.best_cost) {
        di.best_cost = c;
        di.best = static_cast<int>(ci);
      }
    }
    // NL index: primary btree keyed on dim_col, or secondary leading on it.
    if (di.tc->primary == PrimaryKind::kBTree && !di.tc->primary_keys.empty() &&
        di.tc->primary_keys[0] == jc.dim_col) {
      di.has_nl_index = true;
      di.nl_path.kind = AccessPath::Kind::kBTreeRange;
      di.nl_path.seek_cols = 1;
      di.nl_covering = true;
    } else {
      for (const auto& s : di.tc->secondaries) {
        if (s.def.is_btree() && !s.def.key_cols.empty() &&
            s.def.key_cols[0] == jc.dim_col) {
          di.has_nl_index = true;
          di.nl_path.kind = AccessPath::Kind::kBTreeRange;
          di.nl_path.index_name = s.def.name;
          di.nl_path.seek_cols = 1;
          // Covering if every needed col is key/payload.
          std::vector<int> payload = s.def.included_cols;
          if (di.tc->primary == PrimaryKind::kBTree) {
            for (int pk : di.tc->primary_keys) payload.push_back(pk);
          }
          di.nl_covering = true;
          for (int need : dim_needed) {
            bool ok = std::find(s.def.key_cols.begin(), s.def.key_cols.end(),
                                need) != s.def.key_cols.end() ||
                      std::find(payload.begin(), payload.end(), need) !=
                          payload.end();
            if (!ok) di.nl_covering = false;
          }
          break;
        }
      }
    }
    dims.push_back(std::move(di));
  }

  // Estimated groups for aggregation.
  double est_groups = 1;
  if (!q.group_by.empty()) {
    for (const auto& g : q.group_by) {
      Table* t = g.table == 0 ? base : dims[g.table - 1].table;
      double ndv = 100;
      if (t->stats().valid() && g.col < static_cast<int>(t->stats().columns.size())) {
        ndv = static_cast<double>(t->stats().columns[g.col].distinct_count());
      }
      est_groups *= std::max(1.0, ndv);
    }
  }

  // `extra_cpu` scales with the scan DOP (worker-local aggregation);
  // `serial_cpu` does not (the final sort runs single-threaded).
  auto finish_cost = [&](double stream_rows, bool order_ok_for_group,
                         bool order_ok_for_sort, bool serial, bool batch_base,
                         AggMethod* agg_out, bool* sort_out, double* extra_cpu,
                         double* serial_cpu, double* extra_io) {
    *agg_out = AggMethod::kNone;
    *sort_out = false;
    *extra_cpu = 0;
    *serial_cpu = 0;
    *extra_io = 0;
    if (!q.aggs.empty()) {
      if (q.group_by.empty()) {
        const double per_row = batch_base && q.joins.empty()
                                   ? p_.batch_cpu_ns * 2
                                   : p_.agg_hash_ns;
        *extra_cpu += stream_rows * per_row / 1e6;
        *agg_out = AggMethod::kHash;
      } else {
        const double g = std::min(est_groups, std::max(1.0, stream_rows));
        const double hash_cpu = stream_rows * p_.agg_hash_ns / 1e6;
        const double mem = g * p_.agg_group_entry_bytes;
        double hash_io = 0;
        if (mem > static_cast<double>(opts.memory_grant_bytes)) {
          // Grace-hash spill: write + read every input row once.
          const double bytes =
              stream_rows * (q.group_by.size() + q.aggs.size()) * 8;
          hash_io = bytes / (disk.write_bw_mb_s * 1024 * 1024) * 1000 +
                    bytes / (disk.read_bw_mb_s * 1024 * 1024) * 1000;
        }
        const double stream_cpu = stream_rows * p_.agg_stream_ns / 1e6;
        const bool stream_ok = order_ok_for_group && serial && q.joins.empty();
        // Spill I/O always hurts (it is real time, hot or cold).
        if (stream_ok && stream_cpu < hash_cpu + hash_io) {
          *agg_out = AggMethod::kStream;
          *extra_cpu += stream_cpu;
        } else {
          *agg_out = AggMethod::kHash;
          *extra_cpu += hash_cpu;
          *extra_io += hash_io;  // charged even when hot: spills are real
        }
      }
    }
    if (!q.order_by.empty() && q.aggs.empty()) {
      if (!order_ok_for_sort) {
        *sort_out = true;
        const double nlogn =
            stream_rows * std::max(1.0, std::log2(std::max(2.0, stream_rows)));
        *serial_cpu += nlogn * p_.sort_cmp_ns / 1e6;
        const double bytes = stream_rows * p_.sort_row_bytes;
        if (bytes > static_cast<double>(opts.memory_grant_bytes)) {
          *extra_io += bytes / (disk.write_bw_mb_s * 1024 * 1024) * 1000 +
                       bytes / (disk.read_bw_mb_s * 1024 * 1024) * 1000;
        }
      }
    }
  };

  PlanResult best;
  best.cost_ms = 1e300;

  // ---------- base-driven alternatives ----------
  for (const auto& cand : base_cands) {
    double join_cpu = 0;
    double io = cand.io_ms;
    double stream_rows = cand.out_rows;
    const double probe_ns =
        cand.path.is_csi() ? p_.batch_probe_ns : p_.row_probe_ns;
    std::vector<JoinStep> steps;
    for (size_t j = 0; j < dims.size(); ++j) {
      const DimInfo& di = dims[j];
      const double sel_dim = di.out_rows / std::max(1.0, di.rows);
      // Hash join. A CSI base scan pushes the join's Bloom filter into the
      // scan, so only matching rows (plus a false-positive tail) reach the
      // batch probe kernels; row-mode bases probe every inflow row.
      double probe_cost_ms;
      if (cand.path.is_csi()) {
        const double pass = std::min(1.0, sel_dim + p_.bloom_fp_rate);
        probe_cost_ms = (stream_rows * p_.bloom_check_ns +
                         stream_rows * pass * probe_ns) /
                        1e6;
      } else {
        probe_cost_ms = stream_rows * probe_ns / 1e6;
      }
      const double hash_cost = di.best_cost +
                               di.out_rows * p_.hash_build_ns / 1e6 +
                               probe_cost_ms;
      // Index NL join.
      double nl_cost = 1e300;
      if (di.has_nl_index) {
        nl_cost = stream_rows * (p_.seek_ns + p_.row_cpu_ns) / 1e6;
        if (!di.nl_covering) nl_cost += stream_rows * p_.lookup_ns / 1e6;
        if (cold) {
          nl_cost += RandomReadMs(std::min(stream_rows, di.rows),
                                  static_cast<uint64_t>(stream_rows * 64),
                                  disk);
        }
      }
      JoinStep st;
      st.join_idx = static_cast<int>(j);
      if (nl_cost < hash_cost) {
        st.method = JoinStep::Method::kIndexNL;
        st.dim_path = di.nl_path;
        join_cpu += nl_cost;  // NL I/O folded above for simplicity
      } else {
        st.method = JoinStep::Method::kHash;
        st.dim_path = di.cands[di.best].path;
        join_cpu += di.cands[di.best].cpu_ms_serial +
                    di.out_rows * p_.hash_build_ns / 1e6 + probe_cost_ms;
        io += di.cands[di.best].io_ms;
      }
      stream_rows *= sel_dim;
      st.est_dim_rows = di.out_rows;
      st.est_rows_out = stream_rows;
      steps.push_back(std::move(st));
    }

    // DML statements collect their row set serially, so their plan must be
    // costed at DOP 1.
    const bool parallel = q.kind == Query::Kind::kSelect &&
                          cand.parallel_ok &&
                          cand.scan_rows > p_.serial_row_threshold;
    const int dop = parallel ? max_dop : 1;
    const bool order_group = OrderCovers(cand.order_cols, q.group_by);
    const bool order_sort = OrderCovers(cand.order_cols, q.order_by);

    // Try both serial and the chosen dop: streaming agg or sort avoidance
    // may beat parallelism (Fig. 4's crossover; Q2's option (c)).
    for (int try_dop : {1, dop}) {
      AggMethod agg;
      bool sort;
      double extra_cpu, serial_cpu, extra_io;
      finish_cost(stream_rows, order_group && try_dop == 1,
                  order_sort && try_dop == 1, try_dop == 1,
                  cand.path.is_csi(), &agg, &sort, &extra_cpu, &serial_cpu,
                  &extra_io);
      double total_cpu = (try_dop == 1 ? cand.cpu_ms_serial : cand.cpu_ms) +
                         join_cpu + extra_cpu;
      double total_io = (cold ? io : 0.0) + extra_io;
      double cost = total_cpu / try_dop + serial_cpu + total_io / try_dop +
                    (try_dop > 1 ? p_.parallel_startup_ms : 0.0);
      if (cost < best.cost_ms) {
        best.cost_ms = cost;
        best.plan.base = cand.path;
        best.plan.joins = steps;
        best.plan.agg = agg;
        best.plan.explicit_sort = sort;
        best.plan.dop = try_dop;
        best.plan.driving_join = -1;
        best.plan.est_cost = cost;
        best.plan.est_base_rows = cand.scan_rows;
        best.plan.est_out_rows = stream_rows;
      }
      if (try_dop == dop) break;  // dop == 1 case
    }
  }

  // ---------- dimension-driven alternatives (Section 5.3 shape) ----------
  if (q.kind == Query::Kind::kSelect) {
    for (size_t j = 0; j < dims.size(); ++j) {
      const DimInfo& di = dims[j];
      const JoinClause& jc = q.joins[j];
      // Need a base B+ tree leading on the join column.
      AccessPath fact_path;
      bool found = false;
      bool covering = true;
      if (tc->primary == PrimaryKind::kBTree && !tc->primary_keys.empty() &&
          tc->primary_keys[0] == jc.base_col) {
        fact_path.kind = AccessPath::Kind::kBTreeRange;
        fact_path.seek_cols = 1;
        found = true;
      } else {
        for (const auto& s : tc->secondaries) {
          if (s.def.is_btree() && !s.def.key_cols.empty() &&
              s.def.key_cols[0] == jc.base_col) {
            fact_path.kind = AccessPath::Kind::kBTreeRange;
            fact_path.index_name = s.def.name;
            fact_path.seek_cols = 1;
            std::vector<int> payload = s.def.included_cols;
            if (tc->primary == PrimaryKind::kBTree) {
              for (int pk : tc->primary_keys) payload.push_back(pk);
            }
            for (int need : needed) {
              bool ok = std::find(s.def.key_cols.begin(), s.def.key_cols.end(),
                                  need) != s.def.key_cols.end() ||
                        std::find(payload.begin(), payload.end(), need) !=
                            payload.end();
              if (!ok) covering = false;
            }
            found = true;
            break;
          }
        }
      }
      if (!found) continue;

      const double n = static_cast<double>(tc->primary_stats.rows
                                               ? tc->primary_stats.rows
                                               : base->num_rows());
      const double matches_per_dim = n / std::max(1.0, di.rows);
      const double fact_rows = di.out_rows * matches_per_dim;
      const double sel_base = PredSelectivity(*base, q.base.preds);
      double stream_rows = fact_rows * sel_base;

      double cpu = di.cands[di.best].cpu_ms_serial +
                   di.out_rows * p_.seek_ns / 1e6 +
                   fact_rows * p_.row_cpu_ns / 1e6;
      if (!covering) cpu += fact_rows * p_.lookup_ns / 1e6;
      double io = di.cands[di.best].io_ms;
      if (cold) {
        io += RandomReadMs(di.out_rows,
                           static_cast<uint64_t>(fact_rows * 64), disk);
      }

      std::vector<JoinStep> steps;
      {
        JoinStep st;
        st.join_idx = static_cast<int>(j);
        st.method = JoinStep::Method::kHash;  // placeholder for the driver
        st.dim_path = di.cands[di.best].path;
        st.est_dim_rows = di.out_rows;
        st.est_rows_out = stream_rows;
        steps.push_back(std::move(st));
      }
      for (size_t k = 0; k < dims.size(); ++k) {
        if (k == j) continue;
        const DimInfo& dk = dims[k];
        const double sel_dim = dk.out_rows / std::max(1.0, dk.rows);
        const double hash_cost = dk.best_cost +
                                 dk.out_rows * p_.hash_build_ns / 1e6 +
                                 stream_rows * p_.row_probe_ns / 1e6;
        double nl_cost = 1e300;
        if (dk.has_nl_index) {
          nl_cost = stream_rows * (p_.seek_ns + p_.row_cpu_ns) / 1e6;
          if (!dk.nl_covering) nl_cost += stream_rows * p_.lookup_ns / 1e6;
        }
        JoinStep st;
        st.join_idx = static_cast<int>(k);
        if (nl_cost < hash_cost) {
          st.method = JoinStep::Method::kIndexNL;
          st.dim_path = dk.nl_path;
          cpu += nl_cost;
        } else {
          st.method = JoinStep::Method::kHash;
          st.dim_path = dk.cands[dk.best].path;
          cpu += dk.cands[dk.best].cpu_ms_serial +
                 dk.out_rows * p_.hash_build_ns / 1e6 +
                 stream_rows * p_.row_probe_ns / 1e6;
          io += dk.cands[dk.best].io_ms;
        }
        stream_rows *= sel_dim;
        st.est_dim_rows = dk.out_rows;
        st.est_rows_out = stream_rows;
        steps.push_back(std::move(st));
      }

      AggMethod agg;
      bool sort;
      double extra_cpu, serial_cpu, extra_io;
      finish_cost(stream_rows, false, false, true, false, &agg, &sort,
                  &extra_cpu, &serial_cpu, &extra_io);
      const double cost =
          cpu + extra_cpu + serial_cpu + (cold ? io : 0.0) + extra_io;
      if (cost < best.cost_ms) {
        best.cost_ms = cost;
        best.plan.base = fact_path;
        best.plan.joins = steps;
        best.plan.agg = agg;
        best.plan.explicit_sort = sort;
        best.plan.dop = 1;
        best.plan.driving_join = static_cast<int>(j);
        best.plan.est_cost = cost;
        best.plan.est_base_rows = fact_rows;
        best.plan.est_out_rows = stream_rows;
      }
    }
  }

  // ---------- DML maintenance costs ----------
  if (q.kind != Query::Kind::kSelect) {
    best.plan.dop = 1;  // DML row collection is serial
    double n_aff = best.plan.est_out_rows;
    if (q.kind != Query::Kind::kSelect && q.limit >= 0) {
      n_aff = std::min<double>(n_aff, static_cast<double>(q.limit));
    }
    if (q.kind == Query::Kind::kInsert) {
      n_aff = static_cast<double>(q.insert_rows.size());
      best.cost_ms = 0;  // no scan
    }
    double maint = 0;
    const double rows_total = static_cast<double>(
        tc->primary_stats.rows ? tc->primary_stats.rows : base->num_rows());
    switch (tc->primary) {
      case PrimaryKind::kHeap:
        maint += n_aff * p_.update_in_place_ns / 1e6;
        break;
      case PrimaryKind::kBTree:
        maint += n_aff * p_.dml_btree_ns / 1e6;
        break;
      case PrimaryKind::kColumnStore:
        // Statement-level locator scan + delta insert per row.
        maint += rows_total * p_.csi_locate_ns / 1e6 +
                 n_aff * p_.dml_delta_insert_ns / 1e6;
        break;
    }
    for (const auto& s : tc->secondaries) {
      if (s.def.is_btree()) {
        maint += n_aff * p_.dml_btree_ns / 1e6;
      } else {
        maint += n_aff * (p_.dml_delete_buffer_ns + p_.dml_delta_insert_ns) / 1e6;
      }
    }
    best.cost_ms += maint;
    best.plan.est_cost = best.cost_ms;
  }

  return best;
}

Result<double> Optimizer::WhatIfCost(const Query& q, const Configuration& cfg,
                                     const PlanOptions& opts) const {
  HD_ASSIGN_OR_RETURN(PlanResult r, Plan(q, cfg, opts));
  return r.cost_ms;
}

}  // namespace hd
