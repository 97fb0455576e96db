// Logical query model.
//
// A deliberately restricted algebra that covers every workload in the
// paper: single-table scans with range/equality predicates, star-style
// equi-joins, aggregation (optionally grouped), ordering, TOP-N, and
// UPDATE/DELETE/INSERT statements. Queries are engine-neutral: the
// optimizer chooses the physical plan, the executor runs it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/value.h"

namespace hd {

/// Reference to a column of one of the query's tables: table 0 is the base
/// (fact) table, table i >= 1 is joins[i-1]'s dimension table.
struct ColRef {
  int table = 0;
  int col = 0;

  bool operator==(const ColRef& o) const {
    return table == o.table && col == o.col;
  }
};

/// Conjunctive range predicate on a single column of one table.
/// Both bounds optional; equality is lo == hi, both inclusive.
struct Pred {
  int col = 0;
  std::optional<Value> lo;
  bool lo_incl = true;
  std::optional<Value> hi;
  bool hi_incl = true;

  static Pred Eq(int col, Value v) { return Pred{col, v, true, v, true}; }
  static Pred Lt(int col, Value v) {
    return Pred{col, std::nullopt, true, std::move(v), false};
  }
  static Pred Le(int col, Value v) {
    return Pred{col, std::nullopt, true, std::move(v), true};
  }
  static Pred Gt(int col, Value v) {
    return Pred{col, std::move(v), false, std::nullopt, true};
  }
  static Pred Ge(int col, Value v) {
    return Pred{col, std::move(v), true, std::nullopt, true};
  }
  static Pred Between(int col, Value lo, Value hi) {
    return Pred{col, std::move(lo), true, std::move(hi), true};
  }
  bool is_equality() const {
    return lo.has_value() && hi.has_value() && lo_incl && hi_incl &&
           lo->Compare(*hi) == 0;
  }
};

/// Scalar arithmetic expression over the (joined) wide row, evaluated in
/// the double domain. Enough for expressions like
/// sum(l_extendedprice * (1 - l_discount)).
struct Expr {
  enum class Kind { kCol, kConst, kAdd, kSub, kMul };
  Kind kind = Kind::kConst;
  ColRef col;        // kCol
  double constant = 0;  // kConst
  std::vector<Expr> children;  // binary ops: exactly 2

  static Expr Col(ColRef c) {
    Expr e;
    e.kind = Kind::kCol;
    e.col = c;
    return e;
  }
  static Expr Col(int table, int col) { return Col(ColRef{table, col}); }
  static Expr Const(double v) {
    Expr e;
    e.kind = Kind::kConst;
    e.constant = v;
    return e;
  }
  static Expr Binary(Kind k, Expr l, Expr r) {
    Expr e;
    e.kind = k;
    e.children.push_back(std::move(l));
    e.children.push_back(std::move(r));
    return e;
  }
  static Expr Add(Expr l, Expr r) { return Binary(Kind::kAdd, std::move(l), std::move(r)); }
  static Expr Sub(Expr l, Expr r) { return Binary(Kind::kSub, std::move(l), std::move(r)); }
  static Expr Mul(Expr l, Expr r) { return Binary(Kind::kMul, std::move(l), std::move(r)); }
};

/// Aggregate function over an expression (or * for count).
struct AggSpec {
  enum class Fn { kCount, kSum, kMin, kMax, kAvg };
  Fn fn = Fn::kCount;
  std::optional<Expr> arg;  // empty = count(*)
  std::string label;

  static AggSpec CountStar() { return AggSpec{Fn::kCount, std::nullopt, "count"}; }
  static AggSpec Sum(Expr e, std::string label = "sum") {
    return AggSpec{Fn::kSum, std::move(e), std::move(label)};
  }
  static AggSpec Min(Expr e) { return AggSpec{Fn::kMin, std::move(e), "min"}; }
  static AggSpec Max(Expr e) { return AggSpec{Fn::kMax, std::move(e), "max"}; }
  static AggSpec Avg(Expr e) { return AggSpec{Fn::kAvg, std::move(e), "avg"}; }
};

/// One table participating in a query, with its conjunctive predicates.
struct TableRef {
  std::string table;
  std::vector<Pred> preds;
};

/// Equi-join between the base table and a dimension table.
struct JoinClause {
  TableRef dim;
  int base_col = 0;  // join column on the base (fact) table
  int dim_col = 0;   // join column on the dimension table
};

/// SET clause of an UPDATE: col = col + delta, or col = value.
struct UpdateSet {
  int col = 0;
  bool is_add = true;
  double add_delta = 0;  // when is_add
  Value set_value;       // when !is_add

  static UpdateSet Add(int col, double delta) {
    UpdateSet s;
    s.col = col;
    s.is_add = true;
    s.add_delta = delta;
    return s;
  }
  static UpdateSet Assign(int col, Value v) {
    UpdateSet s;
    s.col = col;
    s.is_add = false;
    s.set_value = std::move(v);
    return s;
  }
};

/// A logical statement.
struct Query {
  enum class Kind { kSelect, kUpdate, kDelete, kInsert };

  /// EXPLAIN prefix handling: kPlan plans without executing and renders
  /// the annotated tree; kAnalyze executes and renders estimates next to
  /// per-operator actuals (see exec/explain.h).
  enum class ExplainMode { kNone, kPlan, kAnalyze };

  std::string id;  // for reporting (e.g. "Q1", "TPCDS-54")
  Kind kind = Kind::kSelect;
  ExplainMode explain = ExplainMode::kNone;
  TableRef base;
  std::vector<JoinClause> joins;

  // SELECT shape:
  std::vector<AggSpec> aggs;      // empty => project rows
  std::vector<ColRef> group_by;
  std::vector<ColRef> order_by;
  std::vector<ColRef> select_cols;  // projection when aggs empty
  int64_t limit = -1;               // TOP N; -1 = all

  // UPDATE shape (applies to base table; limit = TOP N rows updated):
  std::vector<UpdateSet> sets;

  // INSERT shape: literal rows for the base table.
  std::vector<std::vector<Value>> insert_rows;

  /// Relative weight in a workload (DTA input).
  double weight = 1.0;

  bool is_read_only() const { return kind == Kind::kSelect; }
};

/// Columns (ascending, of `num_columns`) of query table `table` — 0 for
/// the base, j + 1 for joins[j]'s dimension — that `q` reads downstream of
/// the table's scan: aggregate arguments, GROUP BY, ORDER BY, the select
/// list and join columns. DML and SELECT * read every base column.
/// Predicate columns are left out: each access path evaluates its own.
std::vector<int> ColumnsRead(const Query& q, int table, int num_columns);

}  // namespace hd
