// Integration tests: optimizer + executor over all physical designs.
// Core invariant: every query must return identical results no matter
// which combination of heap / B+ tree / columnstore serves it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "common/rng.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "workload/micro.h"
#include "workload/tpch.h"

namespace hd {
namespace {

QueryResult RunQ(Database* db, const Query& q, uint64_t grant = 4ull << 30,
                int max_dop = 4) {
  Optimizer opt(db);
  Configuration cfg = Configuration::FromCatalog(*db);
  PlanOptions popts;
  popts.memory_grant_bytes = grant;
  popts.max_dop = max_dop;
  auto plan = opt.Plan(q, cfg, popts);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  ExecContext ctx;
  ctx.db = db;
  ctx.memory_grant_bytes = grant;
  ctx.max_dop = max_dop;
  Executor ex(ctx);
  QueryResult r = ex.Execute(q, plan->plan);
  EXPECT_TRUE(r.ok()) << r.status.ToString() << " plan=" << r.plan_desc;
  return r;
}

QueryResult RunWithPlan(Database* db, const Query& q, const PhysicalPlan& p) {
  ExecContext ctx;
  ctx.db = db;
  Executor ex(ctx);
  QueryResult r = ex.Execute(q, p);
  EXPECT_TRUE(r.ok()) << r.status.ToString();
  return r;
}

// ---------------------------------------------------------------------
// Q1-style aggregation identical across designs.
// ---------------------------------------------------------------------

struct DesignCase {
  const char* name;
  PrimaryKind primary;
  bool secondary_csi;
  bool secondary_btree_on_col0;
};

// Print a case as its name. gtest would otherwise print the raw struct
// bytes (a string pointer and padding), and the test name CTest derives
// from that text would differ from build to build.
void PrintTo(const DesignCase& dc, std::ostream* os) { *os << dc.name; }

class DesignSweepTest : public ::testing::TestWithParam<DesignCase> {};

TEST_P(DesignSweepTest, Q1SameAnswerEverywhere) {
  const DesignCase& dc = GetParam();
  Database db;
  MicroOptions mo;
  mo.rows = 50000;
  mo.max_value = 999;  // lots of duplicates
  Table* t = MakeUniformIntTable(&db, "t", 2, mo);
  ASSERT_NE(t, nullptr);

  // Reference answer from a plain heap scan. MicroQ1 truncates the cutoff:
  // 0.5 * 999 -> 499.
  const int64_t cutoff = static_cast<int64_t>(0.5 * 999);
  int64_t ref_sum = 0;
  uint64_t ref_cnt = 0;
  t->ScanAll(
      [&](int64_t, const int64_t* row) {
        if (row[0] < cutoff) {
          ref_sum += row[0];
          ++ref_cnt;
        }
        return true;
      },
      nullptr);

  if (dc.primary == PrimaryKind::kBTree) {
    ASSERT_TRUE(t->SetPrimary(PrimaryKind::kBTree, {0}).ok());
  } else if (dc.primary == PrimaryKind::kColumnStore) {
    ASSERT_TRUE(t->SetPrimary(PrimaryKind::kColumnStore).ok());
  }
  if (dc.secondary_csi) ASSERT_TRUE(t->CreateSecondaryColumnStore("csi").ok());
  if (dc.secondary_btree_on_col0) {
    ASSERT_TRUE(t->CreateSecondaryBTree("ix0", {0}, {1}).ok());
  }

  Query q = MicroQ1("t", 0.5, 999);
  QueryResult r = RunQ(&db, q);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].i64(), ref_sum) << r.plan_desc;
  (void)ref_cnt;
}

INSTANTIATE_TEST_SUITE_P(
    Designs, DesignSweepTest,
    ::testing::Values(
        DesignCase{"heap", PrimaryKind::kHeap, false, false},
        DesignCase{"heap_csi", PrimaryKind::kHeap, true, false},
        DesignCase{"heap_btree", PrimaryKind::kHeap, false, true},
        DesignCase{"btree", PrimaryKind::kBTree, false, false},
        DesignCase{"btree_csi", PrimaryKind::kBTree, true, false},
        DesignCase{"csi", PrimaryKind::kColumnStore, false, false},
        DesignCase{"csi_btree", PrimaryKind::kColumnStore, false, true}),
    [](const ::testing::TestParamInfo<DesignCase>& i) {
      return std::string(i.param.name);
    });

// ---------------------------------------------------------------------
// Order by / group by.
// ---------------------------------------------------------------------

TEST(ExecTest, Q2OrderByCorrect) {
  Database db;
  MicroOptions mo;
  mo.rows = 20000;
  mo.max_value = 10000;
  MakeUniformIntTable(&db, "t", 2, mo);
  Query q = MicroQ2("t", 0.1, 10000);
  QueryResult r = RunQ(&db, q);
  EXPECT_GT(r.row_count, 100u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_LE(r.rows[i - 1][1].i64(), r.rows[i][1].i64());
  }
  for (const auto& row : r.rows) EXPECT_LT(row[0].i64(), 1000);
}

TEST(ExecTest, Q2SortAvoidedByBTreeOnOrderCol) {
  Database db;
  MicroOptions mo;
  mo.rows = 200000;
  mo.max_value = 10000;
  Table* t = MakeUniformIntTable(&db, "t", 2, mo);
  ASSERT_TRUE(t->SetPrimary(PrimaryKind::kBTree, {1}).ok());
  Query q = MicroQ2("t", 1.0, 10000);  // unselective: order dominates
  Optimizer opt(&db);
  auto plan = opt.Plan(q, Configuration::FromCatalog(db), {});
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->plan.explicit_sort) << plan->plan.Describe();
  QueryResult r = RunWithPlan(&db, q, plan->plan);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_LE(r.rows[i - 1][1].i64(), r.rows[i][1].i64());
  }
}

TEST(ExecTest, Q3GroupByMatchesReference) {
  Database db;
  Table* t = MakeGroupedTable(&db, "t", 30000, 100, 5);
  std::vector<int64_t> ref(100, 0);
  t->ScanAll(
      [&](int64_t, const int64_t* row) {
        ref[row[0]] += row[1];
        return true;
      },
      nullptr);
  Query q = MicroQ3("t");
  q.order_by = {ColRef{0, 0}};
  QueryResult r = RunQ(&db, q);
  ASSERT_EQ(r.rows.size(), 100u);
  for (int g = 0; g < 100; ++g) {
    EXPECT_EQ(r.rows[g][0].i64(), g);
    EXPECT_EQ(r.rows[g][1].i64(), ref[g]);
  }
}

TEST(ExecTest, StreamAggMatchesHashAgg) {
  Database db;
  Table* t = MakeGroupedTable(&db, "t", 50000, 1000, 6);
  ASSERT_TRUE(t->SetPrimary(PrimaryKind::kBTree, {0}).ok());
  Query q = MicroQ3("t");
  // Force streaming via a plan.
  PhysicalPlan stream;
  stream.base.kind = AccessPath::Kind::kBTreeFullScan;
  stream.agg = AggMethod::kStream;
  stream.dop = 1;
  QueryResult rs = RunWithPlan(&db, q, stream);
  PhysicalPlan hash = stream;
  hash.agg = AggMethod::kHash;
  QueryResult rh = RunWithPlan(&db, q, hash);
  ASSERT_EQ(rs.row_count, rh.row_count);
  // Streamed output is in group order already; sort hash output rows.
  std::map<int64_t, int64_t> hm;
  for (auto& row : rh.rows) hm[row[0].i64()] = row[1].i64();
  for (auto& row : rs.rows) {
    EXPECT_EQ(hm[row[0].i64()], row[1].i64());
  }
}

TEST(ExecTest, HashAggSpillsUnderSmallGrantAndStaysCorrect) {
  Database db;
  Table* t = MakeGroupedTable(&db, "t", 100000, 50000, 7);
  (void)t;
  Query q = MicroQ3("t");
  QueryResult big = RunQ(&db, q, /*grant=*/4ull << 30, /*dop=*/1);
  QueryResult small = RunQ(&db, q, /*grant=*/256 << 10, /*dop=*/1);
  EXPECT_TRUE(small.spilled);
  EXPECT_FALSE(big.spilled);
  EXPECT_EQ(big.row_count, small.row_count);
  EXPECT_GT(small.metrics.spill_bytes.load(), 0u);
}

TEST(ExecTest, SortSpillsUnderSmallGrantAndStaysSorted) {
  Database db;
  MicroOptions mo;
  mo.rows = 100000;
  mo.max_value = 1u << 30;
  MakeUniformIntTable(&db, "t", 2, mo);
  Query q = MicroQ2("t", 1.0, 1u << 30);
  QueryResult r = RunQ(&db, q, /*grant=*/128 << 10, /*dop=*/1);
  EXPECT_TRUE(r.spilled);
  EXPECT_EQ(r.row_count, 100000u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_LE(r.rows[i - 1][1].i64(), r.rows[i][1].i64());
  }
}

TEST(ExecTest, LimitStopsEarly) {
  Database db;
  MicroOptions mo;
  mo.rows = 100000;
  MakeUniformIntTable(&db, "t", 1, mo);
  Query q;
  q.base.table = "t";
  q.select_cols = {ColRef{0, 0}};
  q.limit = 10;
  QueryResult r = RunQ(&db, q, 4ull << 30, /*dop=*/1);
  EXPECT_EQ(r.row_count, 10u);
  EXPECT_LT(r.metrics.rows_scanned.load(), 100000u);
}

// ---------------------------------------------------------------------
// Joins.
// ---------------------------------------------------------------------

class JoinTest : public ::testing::Test {
 protected:
  JoinTest() {
    // Fact: 40000 rows, fk in [0, 400), measure.
    auto fact = db_.CreateTable(
        "fact", Schema({{"fk", ValueType::kInt64, 0},
                        {"measure", ValueType::kInt64, 0}}));
    Rng rng(8);
    std::vector<std::vector<int64_t>> fcols(2);
    for (int i = 0; i < 40000; ++i) {
      fcols[0].push_back(rng.Uniform(0, 399));
      fcols[1].push_back(rng.Uniform(0, 1000));
    }
    fact.value()->BulkLoadPacked(std::move(fcols));
    // Dim: 400 rows, pk + attr (attr = pk % 10).
    auto dim = db_.CreateTable("dim", Schema({{"pk", ValueType::kInt64, 0},
                                              {"attr", ValueType::kInt64, 0}}));
    std::vector<std::vector<int64_t>> dcols(2);
    for (int i = 0; i < 400; ++i) {
      dcols[0].push_back(i);
      dcols[1].push_back(i % 10);
    }
    dim.value()->BulkLoadPacked(std::move(dcols));
    // Reference: sum of measure where dim.attr == 3.
    db_.GetTable("fact")->ScanAll(
        [&](int64_t, const int64_t* row) {
          if (row[0] % 10 == 3) ref_sum_ += row[1];
          return true;
        },
        nullptr);
  }

  Query JoinQuery() {
    Query q;
    q.base.table = "fact";
    JoinClause jc;
    jc.dim.table = "dim";
    jc.dim.preds.push_back(Pred::Eq(1, Value::Int64(3)));
    jc.base_col = 0;
    jc.dim_col = 0;
    q.joins.push_back(jc);
    q.aggs.push_back(AggSpec::Sum(Expr::Col(0, 1), "s"));
    return q;
  }

  Database db_;
  int64_t ref_sum_ = 0;
};

TEST_F(JoinTest, HashJoin) {
  PhysicalPlan p;
  p.base.kind = AccessPath::Kind::kHeapScan;
  JoinStep js;
  js.join_idx = 0;
  js.method = JoinStep::Method::kHash;
  js.dim_path.kind = AccessPath::Kind::kHeapScan;
  p.joins.push_back(js);
  p.agg = AggMethod::kHash;
  QueryResult r = RunWithPlan(&db_, JoinQuery(), p);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].i64(), ref_sum_);
}

TEST_F(JoinTest, IndexNLJoin) {
  Table* dim = db_.GetTable("dim");
  ASSERT_TRUE(dim->SetPrimary(PrimaryKind::kBTree, {0}).ok());
  PhysicalPlan p;
  p.base.kind = AccessPath::Kind::kHeapScan;
  JoinStep js;
  js.join_idx = 0;
  js.method = JoinStep::Method::kIndexNL;
  js.dim_path.kind = AccessPath::Kind::kBTreeRange;
  p.joins.push_back(js);
  p.agg = AggMethod::kHash;
  QueryResult r = RunWithPlan(&db_, JoinQuery(), p);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].i64(), ref_sum_);
}

TEST_F(JoinTest, DimDrivenPlan) {
  Table* fact = db_.GetTable("fact");
  ASSERT_TRUE(fact->SetPrimary(PrimaryKind::kBTree, {0}).ok());
  PhysicalPlan p;
  p.base.kind = AccessPath::Kind::kBTreeRange;
  p.base.seek_cols = 1;
  p.driving_join = 0;
  JoinStep js;
  js.join_idx = 0;
  js.method = JoinStep::Method::kHash;
  js.dim_path.kind = AccessPath::Kind::kHeapScan;
  p.joins.push_back(js);
  p.agg = AggMethod::kHash;
  QueryResult r = RunWithPlan(&db_, JoinQuery(), p);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].i64(), ref_sum_);
}

TEST_F(JoinTest, OptimizerPicksSomethingCorrect) {
  Table* fact = db_.GetTable("fact");
  ASSERT_TRUE(fact->SetPrimary(PrimaryKind::kBTree, {0}).ok());
  Table* dim = db_.GetTable("dim");
  ASSERT_TRUE(dim->SetPrimary(PrimaryKind::kBTree, {0}).ok());
  QueryResult r = RunQ(&db_, JoinQuery());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].i64(), ref_sum_);
}

TEST_F(JoinTest, GroupByDimColumn) {
  Query q;
  q.base.table = "fact";
  JoinClause jc;
  jc.dim.table = "dim";
  jc.base_col = 0;
  jc.dim_col = 0;
  q.joins.push_back(jc);
  q.group_by = {ColRef{1, 1}};  // dim.attr
  q.aggs.push_back(AggSpec::CountStar());
  QueryResult r = RunQ(&db_, q);
  EXPECT_EQ(r.row_count, 10u);
  uint64_t total = 0;
  for (auto& row : r.rows) total += row[1].i64();
  EXPECT_EQ(total, 40000u);
}

// A plan naming a secondary index the table does not have fails with
// NotFound on every executor path instead of dereferencing the index.
TEST_F(JoinTest, PlanNamingMissingIndexIsNotFound) {
  AccessPath heap;
  AccessPath csi;
  csi.kind = AccessPath::Kind::kCsiScan;
  csi.index_name = "missing";
  AccessPath btree;
  btree.kind = AccessPath::Kind::kBTreeRange;
  btree.index_name = "missing";
  btree.seek_cols = 1;
  auto plan = [](AccessPath base, std::vector<JoinStep> joins, int dop) {
    PhysicalPlan p;
    p.base = std::move(base);
    p.joins = std::move(joins);
    p.agg = AggMethod::kHash;
    p.dop = dop;
    return p;
  };
  auto step = [](JoinStep::Method m, AccessPath dim) {
    JoinStep js;
    js.method = m;
    js.dim_path = std::move(dim);
    return js;
  };
  Query global;
  global.base.table = "fact";
  global.aggs.push_back(AggSpec::Sum(Expr::Col(0, 1), "s"));
  Query grouped = global;
  grouped.group_by = {ColRef{0, 0}};
  Query proj;
  proj.base.table = "fact";
  proj.base.preds.push_back(Pred::Lt(1, Value::Int64(5)));
  proj.select_cols = {ColRef{0, 0}};
  PhysicalPlan proj_csi = plan(csi, {}, 1);
  proj_csi.agg = AggMethod::kNone;
  PhysicalPlan proj_btree = plan(btree, {}, 1);
  proj_btree.agg = AggMethod::kNone;
  PhysicalPlan dim_driven = plan(btree, {step(JoinStep::Method::kHash, heap)}, 1);
  dim_driven.driving_join = 0;
  const Query join = JoinQuery();
  const struct {
    const char* shape;
    const Query& q;
    PhysicalPlan p;
  } cases[] = {
      {"global aggregate", global, plan(csi, {}, 1)},
      {"grouped aggregate", grouped, plan(csi, {}, 4)},
      {"csi projection", proj, proj_csi},
      {"btree projection", proj, proj_btree},
      {"batch join", join, plan(csi, {step(JoinStep::Method::kHash, heap)}, 1)},
      {"serial hash build", join,
       plan(heap, {step(JoinStep::Method::kHash, csi)}, 1)},
      {"parallel hash build", join,
       plan(heap, {step(JoinStep::Method::kHash, csi)}, 4)},
      {"index NL setup", join,
       plan(heap, {step(JoinStep::Method::kIndexNL, btree)}, 1)},
      {"dim-driven", join, dim_driven},
  };
  ExecContext ctx;
  ctx.db = &db_;
  ctx.max_dop = 4;
  Executor ex(ctx);
  for (const auto& c : cases) {
    QueryResult r = ex.Execute(c.q, c.p);
    EXPECT_TRUE(r.status.IsNotFound()) << c.shape << ": " << r.status.ToString();
  }
}

// Base and dimension scans over a secondary B+ tree that holds every
// column the query reads need no primary lookups. Every lookup reads a
// heap page, so pages_read tells a covering scan from a fetching one.
TEST(ExecTest, CoveringSecondaryBTreeScansSkipKeyLookups) {
  Database db;
  // t(k, v, w): heap primary; secondary B+ tree on k including v.
  auto t = db.CreateTable("t", Schema({{"k", ValueType::kInt64, 0},
                                       {"v", ValueType::kInt64, 0},
                                       {"w", ValueType::kInt64, 0}}));
  ASSERT_TRUE(t.ok());
  std::vector<std::vector<int64_t>> cols(3);
  for (int i = 0; i < 20000; ++i) {
    cols[0].push_back(i);
    cols[1].push_back(i % 97);
    cols[2].push_back(i % 89);
  }
  t.value()->BulkLoadPacked(std::move(cols));
  ASSERT_TRUE(t.value()->CreateSecondaryBTree("ix", {0}, {1}).ok());
  constexpr uint64_t kQualifying = 2000;  // k in [1000, 2999]
  int64_t ref_v = 0, ref_w = 0;
  for (int64_t k = 1000; k < 3000; ++k) {
    ref_v += k % 97;
    ref_w += k % 89;
  }
  PhysicalPlan p;
  p.base.kind = AccessPath::Kind::kBTreeRange;
  p.base.index_name = "ix";
  p.base.seek_cols = 1;
  p.agg = AggMethod::kHash;
  Query q;
  q.base.table = "t";
  q.base.preds.push_back(
      Pred::Between(0, Value::Int64(1000), Value::Int64(2999)));
  q.aggs.push_back(AggSpec::Sum(Expr::Col(0, 1), "sv"));
  QueryResult covering = RunWithPlan(&db, q, p);
  ASSERT_EQ(covering.rows.size(), 1u);
  EXPECT_EQ(covering.rows[0][0].i64(), ref_v);
  EXPECT_LT(covering.metrics.pages_read.load(), kQualifying / 10);
  // SUM(w) reads a column outside the index: one lookup per row.
  q.aggs[0] = AggSpec::Sum(Expr::Col(0, 2), "sw");
  QueryResult fetching = RunWithPlan(&db, q, p);
  ASSERT_EQ(fetching.rows.size(), 1u);
  EXPECT_EQ(fetching.rows[0][0].i64(), ref_w);
  EXPECT_GE(fetching.metrics.pages_read.load(), kQualifying);
  // DML reads every column, so an UPDATE through the index still fetches
  // and rewrites whole rows.
  Query upd;
  upd.kind = Query::Kind::kUpdate;
  upd.base.table = "t";
  upd.base.preds = q.base.preds;
  upd.sets.push_back(UpdateSet::Add(1, 1));
  QueryResult ur = RunWithPlan(&db, upd, p);
  EXPECT_EQ(ur.affected_rows, kQualifying);
  EXPECT_GE(ur.metrics.pages_read.load(), kQualifying);
  q.aggs[0] = AggSpec::Sum(Expr::Col(0, 1), "sv");
  EXPECT_EQ(RunWithPlan(&db, q, p).rows[0][0].i64(),
            ref_v + static_cast<int64_t>(kQualifying));
  q.aggs[0] = AggSpec::Sum(Expr::Col(0, 2), "sw");
  EXPECT_EQ(RunWithPlan(&db, q, p).rows[0][0].i64(), ref_w);

  // The same index as a hash-join build side: fact(fk) joins t on k and
  // filters t.k, so the dimension scan needs only the key column.
  auto fact = db.CreateTable("fact", Schema({{"fk", ValueType::kInt64, 0}}));
  ASSERT_TRUE(fact.ok());
  std::vector<std::vector<int64_t>> fcols(1);
  for (int i = 0; i < 5000; ++i) fcols[0].push_back(i);
  fact.value()->BulkLoadPacked(std::move(fcols));
  Query jq;
  jq.base.table = "fact";
  JoinClause jc;
  jc.dim.table = "t";
  jc.dim.preds = q.base.preds;
  jc.base_col = 0;
  jc.dim_col = 0;
  jq.joins.push_back(jc);
  jq.aggs.push_back(AggSpec::CountStar());
  PhysicalPlan jp;
  JoinStep js;
  js.method = JoinStep::Method::kHash;
  js.dim_path = p.base;
  jp.joins.push_back(js);
  jp.agg = AggMethod::kHash;
  QueryResult jr = RunWithPlan(&db, jq, jp);
  ASSERT_EQ(jr.rows.size(), 1u);
  EXPECT_EQ(jr.rows[0][0].i64(), static_cast<int64_t>(kQualifying));
  ASSERT_GE(jr.operators.size(), 2u);
  EXPECT_LT(jr.operators[1].metrics.pages_read.load(), kQualifying / 10)
      << jr.operators[1].name;
}

// ---------------------------------------------------------------------
// DML via the executor.
// ---------------------------------------------------------------------

TEST(DmlTest, UpdateTopNAppliesSets) {
  Database db;
  TpchOptions to;
  to.rows = 50000;
  Table* t = MakeLineitem(&db, "lineitem", to);
  ASSERT_TRUE(t->SetPrimary(
      PrimaryKind::kBTree,
      {LineitemCols::kOrderKey, LineitemCols::kLineNumber}).ok());
  ASSERT_TRUE(t->CreateSecondaryBTree("ix_ship", {LineitemCols::kShipDate},
                                      {}).ok());
  const int32_t day = kTpchShipDateLo + 100;
  // Count qualifying rows and a checksum before.
  Query count_q;
  count_q.base.table = "lineitem";
  count_q.base.preds.push_back(Pred::Eq(LineitemCols::kShipDate, Value::Date(day)));
  count_q.aggs.push_back(AggSpec::CountStar());
  count_q.aggs.push_back(
      AggSpec::Sum(Expr::Col(0, LineitemCols::kQuantity), "q"));
  QueryResult before = RunQ(&db, count_q);
  const int64_t n_match = before.rows[0][0].i64();
  const double q_before = before.rows[0][1].f64();
  ASSERT_GT(n_match, 10);

  Query upd = TpchQ4("lineitem", 10, day);
  QueryResult r = RunQ(&db, upd);
  EXPECT_EQ(r.affected_rows, 10u);

  QueryResult after = RunQ(&db, count_q);
  EXPECT_EQ(after.rows[0][0].i64(), n_match);
  EXPECT_NEAR(after.rows[0][1].f64(), q_before + 10.0, 1e-6);
}

TEST(DmlTest, UpdateMaintainsSecondaryCsi) {
  Database db;
  TpchOptions to;
  to.rows = 20000;
  Table* t = MakeLineitem(&db, "lineitem", to);
  ASSERT_TRUE(t->CreateSecondaryColumnStore("csi").ok());
  const int32_t day = kTpchShipDateLo + 50;
  // The date is random-uniform; update at most as many rows as exist.
  Query cnt;
  cnt.base.table = "lineitem";
  cnt.base.preds.push_back(Pred::Eq(LineitemCols::kShipDate, Value::Date(day)));
  cnt.aggs.push_back(AggSpec::CountStar());
  const uint64_t matching = RunQ(&db, cnt).rows[0][0].i64();
  ASSERT_GT(matching, 0u);
  const uint64_t n = std::min<uint64_t>(5, matching);
  Query upd = TpchQ4("lineitem", n, day);
  QueryResult r = RunQ(&db, upd);
  EXPECT_EQ(r.affected_rows, n);
  // Deleted rows live in the delete buffer; new versions in the delta.
  ColumnStoreIndex* csi = t->FindSecondary("csi")->csi.get();
  EXPECT_EQ(csi->delete_buffer_rows(), n);
  EXPECT_EQ(csi->delta_rows(), n);
  EXPECT_EQ(csi->num_rows(), 20000u);
}

TEST(DmlTest, DeleteRemovesRows) {
  Database db;
  MicroOptions mo;
  mo.rows = 10000;
  mo.max_value = 99;
  Table* t = MakeUniformIntTable(&db, "t", 1, mo);
  (void)t;
  Query del;
  del.kind = Query::Kind::kDelete;
  del.base.table = "t";
  del.base.preds.push_back(Pred::Eq(0, Value::Int64(42)));
  QueryResult r = RunQ(&db, del);
  EXPECT_GT(r.affected_rows, 0u);
  Query cnt;
  cnt.base.table = "t";
  cnt.base.preds.push_back(Pred::Eq(0, Value::Int64(42)));
  cnt.aggs.push_back(AggSpec::CountStar());
  QueryResult c = RunQ(&db, cnt);
  EXPECT_EQ(c.rows[0][0].i64(), 0);
}

TEST(DmlTest, InsertVisible) {
  Database db;
  MicroOptions mo;
  mo.rows = 1000;
  mo.max_value = 99;
  MakeUniformIntTable(&db, "t", 2, mo);
  Query ins;
  ins.kind = Query::Kind::kInsert;
  ins.base.table = "t";
  ins.insert_rows.push_back({Value::Int64(123456), Value::Int64(1)});
  QueryResult r = RunQ(&db, ins);
  EXPECT_EQ(r.affected_rows, 1u);
  Query cnt;
  cnt.base.table = "t";
  cnt.base.preds.push_back(Pred::Eq(0, Value::Int64(123456)));
  cnt.aggs.push_back(AggSpec::CountStar());
  EXPECT_EQ(RunQ(&db, cnt).rows[0][0].i64(), 1);
}

// ---------------------------------------------------------------------
// Parallelism and metrics.
// ---------------------------------------------------------------------

TEST(ExecTest, ParallelAndSerialAgree) {
  Database db;
  MicroOptions mo;
  mo.rows = 300000;
  mo.max_value = 1u << 30;
  Table* t = MakeUniformIntTable(&db, "t", 1, mo);
  ASSERT_TRUE(t->SetPrimary(PrimaryKind::kColumnStore).ok());
  Query q = MicroQ1("t", 0.7, 1u << 30);
  PhysicalPlan serial;
  serial.base.kind = AccessPath::Kind::kCsiScan;
  serial.agg = AggMethod::kHash;
  serial.dop = 1;
  PhysicalPlan par = serial;
  par.dop = 4;
  QueryResult rs = RunWithPlan(&db, q, serial);
  QueryResult rp = RunWithPlan(&db, q, par);
  EXPECT_EQ(rs.rows[0][0].i64(), rp.rows[0][0].i64());
}

TEST(ExecTest, ColdRunChargesIoHotDoesNot) {
  Database db;
  MicroOptions mo;
  mo.rows = 200000;
  MakeUniformIntTable(&db, "t", 1, mo);
  Query q = MicroQ1("t", 1.0, mo.max_value);
  db.ColdStart();
  QueryResult cold = RunQ(&db, q);
  EXPECT_GT(cold.metrics.sim_io_ms(), 0.0);
  QueryResult hot = RunQ(&db, q);
  EXPECT_DOUBLE_EQ(hot.metrics.sim_io_ms(), 0.0);
  EXPECT_EQ(cold.rows[0][0].i64(), hot.rows[0][0].i64());
}

TEST(ExecTest, ImpossiblePredicateEmptyResult) {
  Database db;
  MicroOptions mo;
  mo.rows = 1000;
  MakeUniformIntTable(&db, "t", 1, mo);
  Query q;
  q.base.table = "t";
  q.base.preds.push_back(Pred::Between(0, Value::Int64(10), Value::Int64(5)));
  q.aggs.push_back(AggSpec::CountStar());
  QueryResult r = RunQ(&db, q);
  EXPECT_EQ(r.rows[0][0].i64(), 0);
}

// ---------------------------------------------------------------------
// Encoded-domain aggregate pushdown: bit-identical to full decode across
// predicates, encodings, delta-store rows, and deleted rows.
// ---------------------------------------------------------------------

class AggPushdownTest : public ::testing::Test {
 protected:
  // Three stored shapes: sorted/runny (RLE), small domain (dict-packed),
  // wide domain (raw-packed) — pushdown must agree with the decode path
  // on every one. `model_` mirrors the table's live rows.
  void SetUp() override {
    auto t = db_.CreateTable("t", Schema({{"a", ValueType::kInt64, 0},
                                          {"b", ValueType::kInt64, 0},
                                          {"c", ValueType::kInt64, 0}}));
    ASSERT_TRUE(t.ok());
    table_ = t.value();
    Rng rng(83);
    std::vector<std::vector<int64_t>> cols(3);
    const int n = 300000;  // several row groups at the default size
    for (int i = 0; i < n; ++i) {
      const int64_t a = i / 37;                      // sorted, runny
      const int64_t b = rng.Uniform(0, 30) * 11;     // small domain
      const int64_t c = rng.Uniform(-1000000, 1000000);  // wide
      cols[0].push_back(a);
      cols[1].push_back(b);
      cols[2].push_back(c);
      model_.push_back({a, b, c});
    }
    table_->BulkLoadPacked(std::move(cols));
    ASSERT_TRUE(table_->SetPrimary(PrimaryKind::kColumnStore).ok());
  }

  // COUNT(*), SUM(b), MIN(c), MAX(c), AVG(b) under an optional predicate
  // `plo <= col[pcol] <= phi`; engine answer vs the row model.
  void CheckSweep(int pcol, int64_t plo, int64_t phi, bool with_pred,
                  QueryMetrics* out = nullptr) {
    Query q;
    q.base.table = "t";
    if (with_pred) {
      q.base.preds.push_back(
          Pred::Between(pcol, Value::Int64(plo), Value::Int64(phi)));
    }
    q.aggs.push_back(AggSpec::CountStar());
    q.aggs.push_back(AggSpec::Sum(Expr::Col(0, 1), "sb"));
    q.aggs.push_back(AggSpec::Min(Expr::Col(0, 2)));
    q.aggs.push_back(AggSpec::Max(Expr::Col(0, 2)));
    q.aggs.push_back(AggSpec::Avg(Expr::Col(0, 1)));
    QueryResult r = RunQ(&db_, q);
    ASSERT_EQ(r.rows.size(), 1u);

    int64_t cnt = 0, sum = 0;
    int64_t mn = INT64_MAX, mx = INT64_MIN;
    for (const auto& row : model_) {
      if (with_pred && (row[pcol] < plo || row[pcol] > phi)) continue;
      ++cnt;
      sum += row[1];
      mn = std::min(mn, row[2]);
      mx = std::max(mx, row[2]);
    }
    ASSERT_GT(cnt, 0) << "degenerate sweep";
    EXPECT_EQ(r.rows[0][0].i64(), cnt) << r.plan_desc;
    EXPECT_EQ(r.rows[0][1].i64(), sum) << r.plan_desc;
    EXPECT_EQ(r.rows[0][2].i64(), mn) << r.plan_desc;
    EXPECT_EQ(r.rows[0][3].i64(), mx) << r.plan_desc;
    EXPECT_NEAR(r.rows[0][4].f64(),
                static_cast<double>(sum) / static_cast<double>(cnt), 1e-9)
        << r.plan_desc;
    if (out != nullptr) *out = r.metrics;
  }

  Database db_;
  Table* table_ = nullptr;
  std::vector<std::array<int64_t, 3>> model_;
};

TEST_F(AggPushdownTest, AllPassAnswersWithoutDecoding) {
  QueryMetrics m;
  CheckSweep(0, 0, 0, /*with_pred=*/false, &m);
  // No predicate: every row group is answered in the encoded domain.
  EXPECT_GT(m.aggs_pushed_down.load(), 0u);
  EXPECT_EQ(m.rows_decoded.load(), 0u);
  EXPECT_EQ(m.rows_selected.load(), model_.size());
}

TEST_F(AggPushdownTest, PredicateOnAggregatedColumnStaysPushed) {
  // COUNT + SUM/MIN/MAX(a) with the only predicate on `a` itself: per-run
  // and per-code kernels answer without materialization.
  Query q;
  q.base.table = "t";
  q.base.preds.push_back(Pred::Between(0, Value::Int64(1000), Value::Int64(5000)));
  q.aggs.push_back(AggSpec::CountStar());
  q.aggs.push_back(AggSpec::Sum(Expr::Col(0, 0), "sa"));
  q.aggs.push_back(AggSpec::Min(Expr::Col(0, 0)));
  q.aggs.push_back(AggSpec::Max(Expr::Col(0, 0)));
  QueryResult r = RunQ(&db_, q);
  int64_t cnt = 0, sum = 0, mn = INT64_MAX, mx = INT64_MIN;
  for (const auto& row : model_) {
    if (row[0] < 1000 || row[0] > 5000) continue;
    ++cnt;
    sum += row[0];
    mn = std::min(mn, row[0]);
    mx = std::max(mx, row[0]);
  }
  EXPECT_EQ(r.rows[0][0].i64(), cnt);
  EXPECT_EQ(r.rows[0][1].i64(), sum);
  EXPECT_EQ(r.rows[0][2].i64(), mn);
  EXPECT_EQ(r.rows[0][3].i64(), mx);
  EXPECT_GT(r.metrics.aggs_pushed_down.load(), 0u);
  EXPECT_EQ(r.metrics.rows_decoded.load(), 0u);
}

TEST_F(AggPushdownTest, CrossColumnPredicateFallsBackAndAgrees) {
  // SUM(b) under a predicate on `a` needs row materialization: the scan
  // path must produce the identical answer and actually decode.
  QueryMetrics m;
  CheckSweep(0, 1000, 5000, /*with_pred=*/true, &m);
  EXPECT_GT(m.rows_decoded.load(), 0u);
}

TEST_F(AggPushdownTest, DeltaStoreRowsAreIncluded) {
  // Trickle-insert rows (they land in the delta store, scanned row-mode);
  // compressed groups keep using pushdown, and the union is exact.
  Query ins;
  ins.kind = Query::Kind::kInsert;
  ins.base.table = "t";
  Rng rng(89);
  for (int i = 0; i < 500; ++i) {
    const int64_t a = 9000 + rng.Uniform(0, 100);
    const int64_t b = rng.Uniform(0, 30) * 11;
    const int64_t c = rng.Uniform(-2000000, 2000000);  // widen min/max
    ins.insert_rows.push_back(
        {Value::Int64(a), Value::Int64(b), Value::Int64(c)});
    model_.push_back({a, b, c});
  }
  QueryResult ir = RunQ(&db_, ins);
  ASSERT_EQ(ir.affected_rows, 500u);

  QueryMetrics m;
  CheckSweep(0, 0, 0, /*with_pred=*/false, &m);
  EXPECT_GT(m.aggs_pushed_down.load(), 0u);  // compressed groups still pushed
  CheckSweep(1, 110, 220, /*with_pred=*/true, &m);
  CheckSweep(2, -500000, 500000, /*with_pred=*/true, &m);
}

TEST_F(AggPushdownTest, DeletedRowsForcePerGroupFallback) {
  // Delete a value band on the wide column: the primary CSI sets delete
  // bitmap bits across every row group, so pushdown must decline and the
  // decode path must subtract exactly the deleted rows.
  Query del;
  del.kind = Query::Kind::kDelete;
  del.base.table = "t";
  del.base.preds.push_back(
      Pred::Between(2, Value::Int64(-3000), Value::Int64(3000)));
  QueryResult dr = RunQ(&db_, del);
  ASSERT_GT(dr.affected_rows, 0u);
  std::erase_if(model_, [](const std::array<int64_t, 3>& row) {
    return row[2] >= -3000 && row[2] <= 3000;
  });

  QueryMetrics m;
  CheckSweep(0, 0, 0, /*with_pred=*/false, &m);
  EXPECT_GT(m.rows_decoded.load(), 0u);  // fallback actually ran
  CheckSweep(0, 1000, 5000, /*with_pred=*/true, &m);
  CheckSweep(1, 110, 220, /*with_pred=*/true, &m);
}

TEST(ExecTest, MinMaxAvgAggregates) {
  Database db;
  auto t = db.CreateTable("t", Schema({{"a", ValueType::kInt64, 0},
                                       {"d", ValueType::kDouble, 0}}));
  std::vector<std::vector<int64_t>> cols(2);
  for (int i = 1; i <= 100; ++i) {
    cols[0].push_back(i);
    cols[1].push_back(t.value()->PackValue(1, Value::Double(i * 0.5)));
  }
  t.value()->BulkLoadPacked(std::move(cols));
  Query q;
  q.base.table = "t";
  q.aggs.push_back(AggSpec::Min(Expr::Col(0, 0)));
  q.aggs.push_back(AggSpec::Max(Expr::Col(0, 1)));
  q.aggs.push_back(AggSpec::Avg(Expr::Col(0, 0)));
  QueryResult r = RunQ(&db, q);
  EXPECT_EQ(r.rows[0][0].i64(), 1);
  EXPECT_DOUBLE_EQ(r.rows[0][1].f64(), 50.0);
  EXPECT_DOUBLE_EQ(r.rows[0][2].f64(), 50.5);
}

}  // namespace
}  // namespace hd
