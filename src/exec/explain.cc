#include "exec/explain.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace hd {

namespace {

std::string AggName(const Query& q, const PhysicalPlan& plan) {
  if (plan.agg == AggMethod::kStream) return "StreamAgg";
  std::string s = "HashAgg";
  if (!q.group_by.empty()) {
    s += "(groups=" + std::to_string(q.group_by.size()) + " cols)";
  }
  return s;
}

}  // namespace

std::vector<OperatorProfile> BuildOperatorSkeleton(const Query& q,
                                                   const PhysicalPlan& plan,
                                                   OperatorIndex* idx) {
  OperatorIndex local;
  OperatorIndex& ix = idx != nullptr ? *idx : local;
  ix = OperatorIndex{};
  std::vector<OperatorProfile> ops;

  auto add = [&](std::string name, std::string phase, double est_rows) {
    OperatorProfile op;
    op.name = std::move(name);
    op.phase = std::move(phase);
    op.est_rows = est_rows;
    ops.push_back(std::move(op));
    return static_cast<int>(ops.size()) - 1;
  };

  if (q.kind == Query::Kind::kInsert) {
    ix.output = add("Insert[" + q.base.table + "]", "dml",
                    static_cast<double>(q.insert_rows.size()));
  } else {
    // Describe() already names the secondary index in brackets; only add
    // the table for primary access paths.
    std::string scan_name = plan.base.Describe();
    if (plan.base.index_name.empty()) scan_name += "[" + q.base.table + "]";
    ix.scan = add(std::move(scan_name), "scan", plan.est_base_rows);
    for (size_t s = 0; s < plan.joins.size(); ++s) {
      const JoinStep& st = plan.joins[s];
      std::string name =
          plan.driving_join == st.join_idx
              ? "DimDriver{" + st.dim_path.Describe() + "[" +
                    q.joins[st.join_idx].dim.table + "]}"
              : st.Describe() + "[" + q.joins[st.join_idx].dim.table + "]";
      ix.join.push_back(add(std::move(name), "join", st.est_rows_out));
    }
    if (q.kind == Query::Kind::kSelect) {
      if (!q.aggs.empty()) {
        ix.agg = add(AggName(q, plan), "agg", plan.est_out_rows);
        if (!q.order_by.empty()) ix.sort = add("Sort", "sort", plan.est_out_rows);
      } else {
        if (plan.explicit_sort) {
          ix.sort = add("Sort", "sort", plan.est_out_rows);
        }
        ix.output = add("Project", "project", plan.est_out_rows);
      }
    } else {
      ix.output = add(q.kind == Query::Kind::kUpdate
                          ? "Update[" + q.base.table + "]"
                          : "Delete[" + q.base.table + "]",
                      "dml", plan.est_out_rows);
    }
  }

  const int n = static_cast<int>(ops.size());
  for (int i = 0; i < n; ++i) ops[i].depth = n - 1 - i;
  // The root carries the whole-plan cost estimate.
  if (n > 0) ops[n - 1].est_cost_ms = plan.est_cost;
  return ops;
}

namespace {

std::string Fmt(double v) {
  char buf[64];
  if (v >= 100 || v == static_cast<int64_t>(v)) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.3g", v);
  }
  return buf;
}

void RenderNode(std::ostringstream& os, const OperatorProfile& op,
                bool analyze) {
  for (int i = 0; i < op.depth; ++i) os << "  ";
  os << "-> " << op.name;
  os << "  (est_rows=" << (op.est_rows >= 0 ? Fmt(op.est_rows) : "?");
  if (op.est_cost_ms >= 0) os << " est_cost_ms=" << Fmt(op.est_cost_ms);
  os << ")";
  if (analyze) {
    const QueryMetrics& m = op.metrics;
    os << "  [actual";
    if (op.phase == "join" || op.phase == "agg" || op.phase == "sort" ||
        op.phase == "project") {
      os << " rows_in=" << op.rows_in;
    }
    os << " rows_out=" << op.rows_out;
    if (m.rows_scanned.load() > 0) os << " rows_scanned=" << m.rows_scanned.load();
    if (m.segments_scanned.load() > 0 || m.segments_skipped.load() > 0) {
      os << " segments=" << m.segments_scanned.load() << " scanned/"
         << m.segments_skipped.load() << " skipped";
    }
    if (m.runs_evaluated.load() > 0) {
      os << " runs_evaluated=" << m.runs_evaluated.load();
    }
    if (m.rows_decoded.load() > 0) os << " rows_decoded=" << m.rows_decoded.load();
    if (m.rows_selected.load() > 0) {
      os << " rows_selected=" << m.rows_selected.load();
    }
    if (m.rows_late_materialized.load() > 0) {
      os << " rows_late_materialized=" << m.rows_late_materialized.load();
    }
    if (m.aggs_pushed_down.load() > 0) {
      os << " aggs_pushed_down=" << m.aggs_pushed_down.load();
    }
    if (m.shared_scan_attaches.load() > 0) {
      os << " shared_scan=attached segments_shared=" << m.segments_shared.load()
         << " decode_bytes_saved=" << m.shared_decode_bytes_saved.load();
    }
    if (m.hash_probes.load() > 0) os << " hash_probes=" << m.hash_probes.load();
    if (m.agg_dense_rows.load() > 0) {
      os << " agg_dense_rows=" << m.agg_dense_rows.load();
    }
    if (m.join_batch_probes.load() > 0) {
      os << " batch_probes=" << m.join_batch_probes.load()
         << " matches=" << m.join_matches.load();
    }
    if (m.join_bloom_checks.load() > 0) {
      os << " bloom_checks=" << m.join_bloom_checks.load()
         << " bloom_filtered=" << m.join_bloom_filtered.load();
    }
    if (m.morsels_scheduled.load() > 0) {
      os << " morsels=" << m.morsels_scheduled.load() << "(+"
         << m.morsels_stolen.load() << " stolen)";
    }
    if (m.spill_bytes.load() > 0) os << " spill_bytes=" << m.spill_bytes.load();
    if (m.peak_memory_bytes.load() > 0) {
      os << " peak_mem=" << m.peak_memory_bytes.load();
    }
    char t[64];
    std::snprintf(t, sizeof t, " cpu_ms=%.3f", m.cpu_ms());
    os << t;
    if (m.sim_io_ns.load() > 0) {
      std::snprintf(t, sizeof t, " io_ms=%.3f", m.sim_io_ms());
      os << t;
    }
    os << "]";
  }
  os << "\n";
}

std::string Render(const Query& q, const PhysicalPlan& plan,
                   const std::vector<OperatorProfile>& ops, bool analyze,
                   const QueryResult* r) {
  std::ostringstream os;
  os << (analyze ? "EXPLAIN ANALYZE" : "EXPLAIN") << " " << plan.Describe()
     << "\n";
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    RenderNode(os, *it, analyze);
  }
  if (analyze && r != nullptr) {
    os << "Query totals (rollup of all operators + residual): "
       << r->metrics.ToString() << "\n";
    if (r->trace_id != 0) {
      // The same 16-hex id the wire protocol, query store, slow-query
      // log, and chrome://tracing spans print — one grep correlates all
      // five surfaces.
      os << "Trace: " << FingerprintHex(r->trace_id) << "\n";
    }
  }
  (void)q;
  return os.str();
}

}  // namespace

std::string ExplainPlan(const Query& q, const PhysicalPlan& plan) {
  std::vector<OperatorProfile> ops = BuildOperatorSkeleton(q, plan);
  return Render(q, plan, ops, /*analyze=*/false, nullptr);
}

std::string ExplainAnalyze(const Query& q, const PhysicalPlan& plan,
                           const QueryResult& r) {
  if (r.operators.empty()) {
    // Executor did not run (error paths): fall back to estimates.
    return ExplainPlan(q, plan);
  }
  return Render(q, plan, r.operators, /*analyze=*/true, &r);
}

}  // namespace hd
