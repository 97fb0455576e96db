#include "ch_sql.h"

#include <cmath>
#include <cstdio>

namespace chbench {

using hd::ColRef;
using hd::Expr;
using hd::Query;
using hd::Value;

namespace {

const std::string& TableName(const Query& q, int t) {
  return t == 0 ? q.base.table : q.joins[t - 1].dim.table;
}

std::string Col(const hd::Database& db, const Query& q, int table, int col) {
  const std::string& name = TableName(q, table);
  return name + "." + db.GetTable(name)->schema().column(col).name;
}

std::string Col(const hd::Database& db, const Query& q, const ColRef& c) {
  return Col(db, q, c.table, c.col);
}

std::string RenderExpr(const hd::Database& db, const Query& q, const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kCol:
      return Col(db, q, e.col);
    case Expr::Kind::kConst:
      return RenderLiteral(Value::Double(e.constant));
    case Expr::Kind::kAdd:
    case Expr::Kind::kSub:
    case Expr::Kind::kMul: {
      const char* op = e.kind == Expr::Kind::kAdd   ? " + "
                       : e.kind == Expr::Kind::kSub ? " - "
                                                    : " * ";
      return "(" + RenderExpr(db, q, e.children[0]) + op +
             RenderExpr(db, q, e.children[1]) + ")";
    }
  }
  return "";
}

std::string RenderAgg(const hd::Database& db, const Query& q,
                      const hd::AggSpec& a) {
  using Fn = hd::AggSpec::Fn;
  if (a.fn == Fn::kCount) return "COUNT(*)";
  const char* fn = a.fn == Fn::kSum   ? "SUM"
                   : a.fn == Fn::kMin ? "MIN"
                   : a.fn == Fn::kMax ? "MAX"
                                      : "AVG";
  return std::string(fn) + "(" + RenderExpr(db, q, *a.arg) + ")";
}

/// Appends " AND "-joined comparisons for one predicate.
void RenderPred(const std::string& col, const hd::Pred& p,
                std::vector<std::string>* out) {
  if (p.is_equality()) {
    out->push_back(col + " = " + RenderLiteral(*p.lo));
    return;
  }
  if (p.lo && p.hi && p.lo_incl && p.hi_incl) {
    out->push_back(col + " BETWEEN " + RenderLiteral(*p.lo) + " AND " +
                   RenderLiteral(*p.hi));
    return;
  }
  if (p.lo) {
    out->push_back(col + (p.lo_incl ? " >= " : " > ") + RenderLiteral(*p.lo));
  }
  if (p.hi) {
    out->push_back(col + (p.hi_incl ? " <= " : " < ") + RenderLiteral(*p.hi));
  }
}

std::string Joined(const std::vector<std::string>& parts,
                   const std::string& sep) {
  std::string s;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) s += sep;
    s += parts[i];
  }
  return s;
}

std::string RenderWhere(const hd::Database& db, const Query& q) {
  std::vector<std::string> conds;
  for (const hd::Pred& p : q.base.preds) {
    RenderPred(Col(db, q, 0, p.col), p, &conds);
  }
  for (size_t j = 0; j < q.joins.size(); ++j) {
    for (const hd::Pred& p : q.joins[j].dim.preds) {
      RenderPred(Col(db, q, static_cast<int>(j + 1), p.col), p, &conds);
    }
  }
  return conds.empty() ? "" : " WHERE " + Joined(conds, " AND ");
}

std::string RenderFrom(const hd::Database& db, const Query& q) {
  std::string s = q.base.table;
  for (size_t j = 0; j < q.joins.size(); ++j) {
    const hd::JoinClause& jc = q.joins[j];
    s += " JOIN " + jc.dim.table + " ON " + Col(db, q, 0, jc.base_col) +
         " = " + Col(db, q, static_cast<int>(j + 1), jc.dim_col);
  }
  return s;
}

std::string RenderLimit(const Query& q) {
  return q.limit >= 0 ? " LIMIT " + std::to_string(q.limit) : "";
}

}  // namespace

std::string RenderLiteral(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kInt32:
    case Value::Kind::kInt64:
      return std::to_string(v.AsInt64());
    case Value::Kind::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v.f64());
      std::string s = buf;
      if (std::isfinite(v.f64()) &&
          s.find_first_of(".eE") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case Value::Kind::kString:
      return "'" + v.str() + "'";
    case Value::Kind::kNull:
      break;
  }
  return "NULL";
}

std::string RenderSql(const hd::Database& db, const Query& q) {
  switch (q.kind) {
    case Query::Kind::kSelect: {
      std::vector<std::string> items;
      if (!q.aggs.empty()) {
        for (const ColRef& g : q.group_by) items.push_back(Col(db, q, g));
        for (const hd::AggSpec& a : q.aggs) items.push_back(RenderAgg(db, q, a));
      } else if (!q.select_cols.empty()) {
        for (const ColRef& c : q.select_cols) items.push_back(Col(db, q, c));
      } else {
        items.push_back("*");
      }
      std::string s = "SELECT " + Joined(items, ", ") + " FROM " +
                      RenderFrom(db, q) + RenderWhere(db, q);
      auto cols = [&](const std::vector<ColRef>& cs) {
        std::vector<std::string> out;
        for (const ColRef& c : cs) out.push_back(Col(db, q, c));
        return Joined(out, ", ");
      };
      if (!q.group_by.empty()) s += " GROUP BY " + cols(q.group_by);
      if (!q.order_by.empty()) s += " ORDER BY " + cols(q.order_by);
      return s + RenderLimit(q);
    }
    case Query::Kind::kUpdate: {
      std::vector<std::string> sets;
      for (const hd::UpdateSet& u : q.sets) {
        const std::string c = Col(db, q, 0, u.col);
        if (!u.is_add) {
          sets.push_back(c + " = " + RenderLiteral(u.set_value));
        } else {
          const double d = u.add_delta;
          sets.push_back(c + " = " + c + (std::signbit(d) ? " - " : " + ") +
                         RenderLiteral(Value::Double(std::fabs(d))));
        }
      }
      return "UPDATE " + RenderFrom(db, q) + " SET " + Joined(sets, ", ") +
             RenderWhere(db, q) + RenderLimit(q);
    }
    case Query::Kind::kDelete:
      return "DELETE FROM " + RenderFrom(db, q) + RenderWhere(db, q) +
             RenderLimit(q);
    case Query::Kind::kInsert: {
      std::vector<std::string> rows;
      for (const auto& r : q.insert_rows) {
        std::vector<std::string> vals;
        for (const Value& v : r) vals.push_back(RenderLiteral(v));
        rows.push_back("(" + Joined(vals, ", ") + ")");
      }
      return "INSERT INTO " + q.base.table + " VALUES " + Joined(rows, ", ");
    }
  }
  return "";
}

}  // namespace chbench
