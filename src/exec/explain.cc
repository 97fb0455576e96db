#include "exec/explain.h"

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
    os << "  [actual";
    if (op.phase == "join" || op.phase == "agg" || op.phase == "sort" ||
        op.phase == "project") {
      os << " rows_in=" << op.rows_in;
    }
    os << " rows_out=" << op.rows_out << op.metrics.CounterText() << "]";
  }
  os << "\n";
}

/// EXPLAIN when `r` is null, else EXPLAIN ANALYZE of the run `r`.
std::string Render(const PhysicalPlan& plan,
                   const std::vector<OperatorProfile>& ops,
                   const QueryResult* r) {
  std::ostringstream os;
  // The header names the DOP the statement ran at; EXPLAIN runs nothing.
  os << (r != nullptr ? "EXPLAIN ANALYZE " : "EXPLAIN ")
     << plan.Describe(r != nullptr ? r->metrics.dop : 1) << "\n";
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    RenderNode(os, *it, r != nullptr);
  }
  if (r != nullptr) {
    os << "Query totals (rollup of all operators + residual): "
       << r->metrics.ToString() << "\n";
    if (r->trace_id != 0) {
      // The same 16-hex id the wire protocol, query store, slow-query
      // log, and chrome://tracing spans print — one grep correlates all
      // five surfaces.
      os << "Trace: " << FingerprintHex(r->trace_id) << "\n";
    }
  }
  return os.str();
}

}  // namespace

std::string ExplainPlan(const Query& q, const PhysicalPlan& plan) {
  std::vector<OperatorProfile> ops = BuildOperatorSkeleton(q, plan);
  return Render(plan, ops, nullptr);
}

std::string ExplainAnalyze(const Query& q, const PhysicalPlan& plan,
                           const QueryResult& r) {
  if (r.operators.empty()) {
    // Executor did not run (error paths): fall back to estimates.
    return ExplainPlan(q, plan);
  }
  return Render(plan, r.operators, &r);
}

}  // namespace hd
