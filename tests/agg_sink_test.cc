// Batch aggregate sink (exec/agg_sink.h): a differential matrix against
// the row-mode oracle.
//
// The same fact rows sit behind a columnstore primary (batch pipeline:
// decoded batches, vectorized join probes, gathered sink columns) and a
// heap primary (row mode: wide rows, per-row consume). Every cell runs
// both and the results must match; each cell also asserts which sink
// state the batch run used — direct-indexed (agg_dense_rows > 0, no
// probes), hash (probes, no dense rows) or global (neither). Rows still
// in the columnstore's delta store take part in every cell, including
// keys outside the compressed row groups' range. A third copy behind a
// B+ tree on the group key checks the sorted (stream aggregate) state,
// which holds one running group and a bounded set of closed ones. Last,
// statements inside a transaction — aggregates and the output sink's
// projection, ORDER BY and LIMIT — run the same batch pipeline and must
// match row mode, row locks included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "exec/agg_sink.h"
#include "exec/executor.h"
#include "exec/scan_scheduler.h"
#include "txn/transaction.h"

namespace hd {
namespace {

// fact columns
constexpr int kSmall = 0;  // int64 in [-50, 49]: dense, negative keys
constexpr int kWide = 1;   // int64 spread far past the dense cap
constexpr int kTag = 2;    // string, 12 distinct values
constexpr int kFk = 3;     // int64 join key into dim.pk
constexpr int kMInt = 4;   // int64 measure
constexpr int kMDbl = 5;   // double measure
// dim columns
constexpr int kPk = 0;
constexpr int kGrp = 1;   // int64 in [0, 29]
constexpr int kDVal = 2;  // int64
constexpr int kDDbl = 3;  // double

enum class State { kDense, kHash, kGlobal };

struct Mode {
  const char* name;
  int dop;
  bool shared;
};
const Mode kModes[] = {{"serial", 1, false}, {"dop4", 4, false},
                       {"shared", 4, true}};

class AggSinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Schema fact({{"k_small", ValueType::kInt64, 0},
                       {"k_wide", ValueType::kInt64, 0},
                       {"tag", ValueType::kString, 0},
                       {"fk", ValueType::kInt64, 0},
                       {"m_int", ValueType::kInt64, 0},
                       {"m_dbl", ValueType::kDouble, 0}});
    Rng rng(7);
    std::vector<Row> rows;
    for (int i = 0; i < 30000; ++i) rows.push_back(FactRow(&rng));
    Table* csi = db_.CreateTable("fact_csi", fact).value();
    csi->BulkLoad(rows);
    ASSERT_TRUE(csi->SetPrimary(PrimaryKind::kColumnStore).ok());
    Table* heap = db_.CreateTable("fact_row", fact).value();
    heap->BulkLoad(rows);
    Table* bt = db_.CreateTable("fact_bt", fact).value();
    bt->BulkLoad(rows);
    // Trickle inserts land in the delta store, some with keys outside
    // every compressed row group's range (k_small 60..69, a new tag).
    for (int i = 0; i < 300; ++i) {
      Row r = FactRow(&rng);
      if (i % 3 == 0) r[kSmall] = Value::Int64(60 + i % 10);
      if (i % 7 == 0) r[kTag] = Value::String("zz-delta");
      ASSERT_TRUE(csi->InsertRow(r, nullptr).ok());
      ASSERT_TRUE(heap->InsertRow(r, nullptr).ok());
      ASSERT_TRUE(bt->InsertRow(r, nullptr).ok());
    }
    ASSERT_GT(csi->primary_csi()->delta_rows(), 0u);

    Table* dim = db_.CreateTable("dim", Schema({{"pk", ValueType::kInt64, 0},
                                                {"grp", ValueType::kInt64, 0},
                                                {"val", ValueType::kInt64, 0},
                                                {"dbl", ValueType::kDouble, 0}}))
                     .value();
    std::vector<Row> drows;
    for (int i = 0; i < 500; ++i) {
      drows.push_back({Value::Int64(i), Value::Int64(i % 30),
                       Value::Int64(1000 - i), Value::Double(0.25 * (i % 8))});
    }
    dim->BulkLoad(drows);
  }

  static Row FactRow(Rng* rng) {
    static const char* kTags[] = {"alpha", "bravo", "charlie", "delta",
                                  "echo",  "fox",   "golf",    "hotel",
                                  "india", "juliet", "kilo",   "lima"};
    return {Value::Int64(rng->Uniform(-50, 49)),
            Value::Int64(rng->Uniform(0, 2000) * 1000003),
            Value::String(kTags[rng->Uniform(0, 11)]),
            Value::Int64(rng->Uniform(0, 599)),  // 500..599 miss the dim
            Value::Int64(rng->Uniform(-1000, 1000)),
            Value::Double(rng->Uniform(0, 10000) / 8.0)};
  }

  /// `q` over fact_csi (batch) or fact_row (row mode).
  static Query On(Query q, bool batch) {
    q.base.table = batch ? "fact_csi" : "fact_row";
    return q;
  }

  QueryResult Run(const Query& q, bool batch, const Mode& mode,
                  uint64_t grant = 4ull << 30) {
    PhysicalPlan p;
    p.base.kind =
        batch ? AccessPath::Kind::kCsiScan : AccessPath::Kind::kHeapScan;
    for (size_t s = 0; s < q.joins.size(); ++s) {
      JoinStep js;
      js.join_idx = static_cast<int>(s);
      js.method = JoinStep::Method::kHash;
      js.dim_path.kind = AccessPath::Kind::kHeapScan;
      p.joins.push_back(js);
    }
    p.agg = AggMethod::kHash;
    p.dop = mode.dop;
    ExecContext ctx;
    ctx.db = &db_;
    ctx.max_dop = mode.dop;
    ctx.memory_grant_bytes = grant;
    ctx.scan_scheduler = mode.shared && batch ? &sched_ : nullptr;
    Executor ex(ctx);
    return ex.Execute(On(q, batch), p);
  }

  /// `q` over fact_bt as a stream aggregate: a serial scan of the B+ tree
  /// on the group key, in key order.
  QueryResult RunStream(Query q, uint64_t grant = 4ull << 30) {
    q.base.table = "fact_bt";
    PhysicalPlan p;
    p.base.kind = AccessPath::Kind::kBTreeFullScan;
    p.agg = AggMethod::kStream;
    p.dop = 1;
    ExecContext ctx;
    ctx.db = &db_;
    ctx.max_dop = 1;
    ctx.memory_grant_bytes = grant;
    Executor ex(ctx);
    return ex.Execute(q, p);
  }

  /// fact_bt's primary B+ tree leads on `col`.
  void KeyFactBt(int col) {
    ASSERT_TRUE(db_.GetTable("fact_bt")
                    ->SetPrimary(PrimaryKind::kBTree, {col})
                    .ok());
  }

  /// Batch and row mode agree on `q`, and the batch run used `state`.
  void ExpectMatrixCell(const Query& q, State state,
                        uint64_t grant = 4ull << 30) {
    for (const Mode& mode : kModes) {
      SCOPED_TRACE(mode.name);
      QueryResult rb = Run(q, true, mode, grant);
      QueryResult rr = Run(q, false, mode, grant);
      ASSERT_TRUE(rb.ok()) << rb.status.ToString();
      ASSERT_TRUE(rr.ok()) << rr.status.ToString();
      ExpectSameRows(rb, rr);
      const QueryMetrics& m = rb.metrics;
      switch (state) {
        case State::kDense:
          EXPECT_GT(m.agg_dense_rows.load(), 0u);
          EXPECT_EQ(m.hash_probes.load(), 0u);
          break;
        case State::kHash:
          EXPECT_GT(m.hash_probes.load(), 0u);
          EXPECT_EQ(m.agg_dense_rows.load(), 0u);
          break;
        case State::kGlobal:
          EXPECT_EQ(m.hash_probes.load(), 0u);
          EXPECT_EQ(m.agg_dense_rows.load(), 0u);
          break;
      }
      if (mode.shared && q.joins.empty()) {
        EXPECT_GT(m.shared_scan_attaches.load(), 0u);
      }
    }
  }

  /// Row multisets equal; doubles within a relative 1e-9 (summation
  /// order differs between worker layouts).
  static void ExpectSameRows(const QueryResult& a, const QueryResult& b) {
    ASSERT_EQ(a.row_count, b.row_count);
    ASSERT_EQ(a.rows.size(), b.rows.size());
    auto sorted = [](std::vector<Row> rows) {
      std::sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
        for (size_t i = 0; i < x.size(); ++i) {
          const int c = x[i].Compare(y[i]);
          if (c != 0) return c < 0;
        }
        return false;
      });
      return rows;
    };
    const std::vector<Row> x = sorted(a.rows), y = sorted(b.rows);
    for (size_t r = 0; r < x.size(); ++r) {
      ASSERT_EQ(x[r].size(), y[r].size());
      for (size_t c = 0; c < x[r].size(); ++c) {
        const Value& u = x[r][c];
        const Value& v = y[r][c];
        if (u.kind() == Value::Kind::kDouble ||
            v.kind() == Value::Kind::kDouble) {
          const double du = u.AsDouble(), dv = v.AsDouble();
          EXPECT_NEAR(du, dv, 1e-9 * std::max(1.0, std::fabs(dv)))
              << "row " << r << " col " << c;
        } else {
          EXPECT_EQ(u.Compare(v), 0)
              << "row " << r << " col " << c << ": " << u.ToString()
              << " vs " << v.ToString();
        }
      }
    }
  }

  static std::vector<AggSpec> AllAggs(int table, int int_col, int dbl_col) {
    return {AggSpec::CountStar(),
            AggSpec::Sum(Expr::Col(table, int_col), "isum"),
            AggSpec::Sum(Expr::Col(table, dbl_col), "dsum"),
            AggSpec::Avg(Expr::Col(table, int_col)),
            AggSpec::Min(Expr::Col(table, int_col)),
            AggSpec::Max(Expr::Col(table, dbl_col))};
  }

  static JoinClause DimJoin() {
    JoinClause j;
    j.dim.table = "dim";
    j.base_col = kFk;
    j.dim_col = kPk;
    return j;
  }

  Database db_;
  ScanScheduler sched_;
};

TEST_F(AggSinkTest, DenseBaseKeyWithNegativeValuesAndDeltaRows) {
  Query q;
  q.group_by = {ColRef{0, kSmall}};
  q.aggs = AllAggs(0, kMInt, kMDbl);
  ExpectMatrixCell(q, State::kDense);
  // The delta-only keys 60..69 are groups too.
  QueryResult r = Run(q, true, kModes[0]);
  EXPECT_EQ(r.row_count, 110u);
}

TEST_F(AggSinkTest, SpanOverTheCapUsesHashStates) {
  Query q;
  q.group_by = {ColRef{0, kWide}};
  q.aggs = AllAggs(0, kMInt, kMDbl);
  ExpectMatrixCell(q, State::kHash);
}

TEST_F(AggSinkTest, StringKeyAggregatesOverDictionaryCodes) {
  Query q;
  q.group_by = {ColRef{0, kTag}};
  q.aggs = AllAggs(0, kMInt, kMDbl);
  q.aggs.push_back(AggSpec::Min(Expr::Col(0, kTag)));
  ExpectMatrixCell(q, State::kDense);
}

TEST_F(AggSinkTest, TwoColumnKeyUsesHashStates) {
  Query q;
  q.group_by = {ColRef{0, kSmall}, ColRef{0, kTag}};
  q.aggs = AllAggs(0, kMInt, kMDbl);
  ExpectMatrixCell(q, State::kHash);
}

TEST_F(AggSinkTest, DimensionKeyOverJoinIsDense) {
  Query q;
  q.joins = {DimJoin()};
  q.group_by = {ColRef{1, kGrp}};
  q.aggs = AllAggs(0, kMInt, kMDbl);
  q.aggs.push_back(AggSpec::Min(Expr::Col(1, kDVal)));
  q.aggs.push_back(AggSpec::Max(Expr::Col(1, kDDbl)));
  q.aggs.push_back(AggSpec::Sum(
      Expr::Mul(Expr::Col(0, kMInt), Expr::Sub(Expr::Const(1),
                                               Expr::Col(1, kDDbl))),
      "expr"));
  ExpectMatrixCell(q, State::kDense);
}

TEST_F(AggSinkTest, BaseKeyOverJoinIsDense) {
  Query q;
  q.joins = {DimJoin()};
  q.group_by = {ColRef{0, kSmall}};
  q.aggs = AllAggs(1, kDVal, kDDbl);
  ExpectMatrixCell(q, State::kDense);
}

TEST_F(AggSinkTest, GlobalAggregateOverJoin) {
  Query q;
  q.joins = {DimJoin()};
  q.aggs = AllAggs(0, kMInt, kMDbl);
  q.aggs.push_back(AggSpec::Max(Expr::Col(1, kDVal)));
  ExpectMatrixCell(q, State::kGlobal);
}

TEST_F(AggSinkTest, GlobalAggregateWithoutJoin) {
  Query q;
  q.base.preds = {Pred::Lt(kSmall, Value::Int64(0))};
  q.aggs = AllAggs(0, kMInt, kMDbl);
  ExpectMatrixCell(q, State::kGlobal);
}

TEST_F(AggSinkTest, SmallGrantForcesHashStatesAndGraceSpill) {
  Query q;
  q.group_by = {ColRef{0, kSmall}};
  q.aggs = AllAggs(0, kMInt, kMDbl);
  // Too small for the dense arrays, and for more than a few hash groups
  // per worker.
  constexpr uint64_t kGrant = 2048;
  ExpectMatrixCell(q, State::kHash, kGrant);
  QueryResult r = Run(q, true, kModes[1], kGrant);
  EXPECT_TRUE(r.spilled);
  EXPECT_GT(r.metrics.spill_bytes.load(), 0u);
  // Integer sums stay exact through the spill: compare with the unspilled
  // answer.
  QueryResult full = Run(q, true, kModes[1]);
  EXPECT_FALSE(full.spilled);
  ExpectSameRows(r, full);
}

TEST_F(AggSinkTest, TransactionStatementsKeepHashStates) {
  TransactionManager tm;
  Query q = On(Query{}, true);
  q.group_by = {ColRef{0, kSmall}};
  q.aggs = {AggSpec::CountStar()};
  auto txn = tm.Begin(IsolationLevel::kSnapshot);
  ExecContext ctx;
  ctx.db = &db_;
  ctx.txn = txn.get();
  ctx.txns = &tm;
  PhysicalPlan p;
  p.base.kind = AccessPath::Kind::kCsiScan;
  Executor ex(ctx);
  QueryResult r = ex.Execute(q, p);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.row_count, 110u);
  EXPECT_EQ(r.metrics.agg_dense_rows.load(), 0u);
  EXPECT_GT(r.metrics.hash_probes.load(), 0u);
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
}

// GROUP BY ... LIMIT n without ORDER BY returns the n smallest groups in
// Value order, on every sink state and in row mode alike.
TEST_F(AggSinkTest, GroupLimitKeepsSmallestKeys) {
  struct Cell {
    ColRef key;
    std::vector<JoinClause> joins;
    State state;
  };
  const Cell cells[] = {{ColRef{0, kSmall}, {}, State::kDense},
                        {ColRef{0, kWide}, {}, State::kHash},
                        {ColRef{0, kTag}, {}, State::kDense},
                        {ColRef{1, kGrp}, {DimJoin()}, State::kDense}};
  for (const Cell& c : cells) {
    SCOPED_TRACE("key col " + std::to_string(c.key.col));
    Query all;
    all.joins = c.joins;
    all.group_by = {c.key};
    all.aggs = {AggSpec::CountStar(), AggSpec::Sum(Expr::Col(0, kMInt))};
    Query top = all;
    top.limit = 5;
    ExpectMatrixCell(top, c.state);
    for (bool batch : {true, false}) {
      QueryResult full = Run(all, batch, kModes[0]);
      QueryResult lim = Run(top, batch, kModes[1]);
      ASSERT_TRUE(lim.ok());
      ASSERT_EQ(lim.row_count, 5u);
      ASSERT_EQ(lim.rows.size(), 5u);
      std::vector<Row> want = full.rows;
      std::sort(want.begin(), want.end(), [](const Row& x, const Row& y) {
        return x[0].Compare(y[0]) < 0;
      });
      want.resize(5);
      for (size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(lim.rows[i][0].Compare(want[i][0]), 0);
        EXPECT_EQ(lim.rows[i][1].i64(), want[i][1].i64());
      }
    }
  }
  // A LIMIT past the group count keeps every group.
  Query q;
  q.group_by = {ColRef{0, kSmall}};
  q.aggs = {AggSpec::CountStar()};
  q.limit = 1000;
  EXPECT_EQ(Run(q, true, kModes[0]).row_count, 110u);
  EXPECT_EQ(Run(q, false, kModes[0]).row_count, 110u);
}

TEST_F(AggSinkTest, OrderByWithLimitSortsEveryGroupBeforeCutting) {
  Query q;
  q.group_by = {ColRef{0, kWide}};
  q.order_by = {ColRef{0, kWide}};
  q.aggs = {AggSpec::CountStar()};
  q.limit = 3;
  for (bool batch : {true, false}) {
    QueryResult r = Run(q, batch, kModes[1]);
    ASSERT_EQ(r.rows.size(), 3u);
    EXPECT_EQ(r.rows[0][0].i64(), 0);
    EXPECT_LT(r.rows[0][0].i64(), r.rows[1][0].i64());
    EXPECT_LT(r.rows[1][0].i64(), r.rows[2][0].i64());
  }
}

// A group key that is NULL on every row packs to INT64_MIN, so its range
// is [INT64_MIN, INT64_MIN]: one dense slot, reached without overflow.
TEST_F(AggSinkTest, AllNullKeyIsOneDenseGroup) {
  const Schema schema({{"k", ValueType::kInt64, 0},
                       {"m", ValueType::kInt64, 0}});
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({Value::Null(), Value::Int64(i % 97 - 40)});
  }
  Table* csi = db_.CreateTable("null_csi", schema).value();
  csi->BulkLoad(rows);
  ASSERT_TRUE(csi->SetPrimary(PrimaryKind::kColumnStore).ok());
  db_.CreateTable("null_row", schema).value()->BulkLoad(rows);
  Query q;
  q.group_by = {ColRef{0, 0}};
  q.aggs = {AggSpec::CountStar(), AggSpec::Sum(Expr::Col(0, 1), "s"),
            AggSpec::Min(Expr::Col(0, 1))};
  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode.name);
    Query qb = q, qr = q;
    qb.base.table = "null_csi";
    qr.base.table = "null_row";
    PhysicalPlan batch_plan, row_plan;
    batch_plan.base.kind = AccessPath::Kind::kCsiScan;
    row_plan.base.kind = AccessPath::Kind::kHeapScan;
    batch_plan.dop = row_plan.dop = mode.dop;
    ExecContext ctx;
    ctx.db = &db_;
    ctx.max_dop = mode.dop;
    ctx.scan_scheduler = mode.shared ? &sched_ : nullptr;
    QueryResult rb = Executor(ctx).Execute(qb, batch_plan);
    QueryResult rr = Executor(ctx).Execute(qr, row_plan);
    ASSERT_TRUE(rb.ok()) << rb.status.ToString();
    ASSERT_TRUE(rr.ok()) << rr.status.ToString();
    ASSERT_EQ(rb.row_count, 1u);
    EXPECT_TRUE(rb.rows[0][0].is_null());
    EXPECT_EQ(rb.rows[0][1].i64(), 5000);
    EXPECT_EQ(rb.rows[0][3].i64(), -40);
    ExpectSameRows(rb, rr);
    EXPECT_EQ(rb.metrics.agg_dense_rows.load(), 5000u);
    EXPECT_EQ(rb.metrics.hash_probes.load(), 0u);
  }

  // The same over a dimension column that is NULL on every build row.
  Table* dim = db_.CreateTable("dim_null", schema).value();
  std::vector<Row> drows;
  for (int i = 0; i < 500; ++i) drows.push_back({Value::Int64(i), Value::Null()});
  dim->BulkLoad(drows);
  Query j;
  JoinClause jc;
  jc.dim.table = "dim_null";
  jc.base_col = kFk;
  jc.dim_col = 0;
  j.joins = {jc};
  j.group_by = {ColRef{1, 1}};
  j.aggs = AllAggs(0, kMInt, kMDbl);
  ExpectMatrixCell(j, State::kDense);
}

// A stream aggregate holds one running group plus a bounded set of
// closed groups: no hash, no spill, the same answer as hash states.
TEST_F(AggSinkTest, StreamAggregateMatchesHashStatesWithoutProbes) {
  struct Cell {
    int key;
    const char* name;
  };
  for (const Cell& c : {Cell{kWide, "int key"}, Cell{kTag, "string key"},
                        Cell{kSmall, "negative keys"}}) {
    SCOPED_TRACE(c.name);
    KeyFactBt(c.key);
    Query q;
    q.group_by = {ColRef{0, c.key}};
    q.aggs = AllAggs(0, kMInt, kMDbl);
    // A grant too small for hash states: the stream needs none.
    QueryResult rs = RunStream(q, 2048);
    QueryResult rr = Run(q, false, kModes[0]);
    ASSERT_TRUE(rs.ok()) << rs.status.ToString();
    ASSERT_TRUE(rr.ok()) << rr.status.ToString();
    ExpectSameRows(rs, rr);
    EXPECT_EQ(rs.metrics.hash_probes.load(), 0u);
    EXPECT_EQ(rs.metrics.agg_dense_rows.load(), 0u);
    EXPECT_FALSE(rs.spilled);

    // LIMIT without ORDER BY: the n smallest keys in Value order, as the
    // row-mode oracle returns them (B+ tree order over a string column is
    // dictionary-code order, not Value order).
    Query top = q;
    top.limit = 5;
    QueryResult ls = RunStream(top);
    QueryResult lr = Run(top, false, kModes[0]);
    ASSERT_EQ(ls.row_count, 5u);
    ASSERT_EQ(ls.rows.size(), 5u);
    ExpectSameRows(ls, lr);
    for (size_t i = 1; i < ls.rows.size(); ++i) {
      EXPECT_LT(ls.rows[i - 1][0].Compare(ls.rows[i][0]), 0);
    }
  }
}

TEST_F(AggSinkTest, StreamAggregateMemoryStaysBoundedPastTheOutputCap) {
  // 60,000 groups: six times kMaxMaterializedRows, so closed groups
  // the output cannot return are cut while the scan runs.
  constexpr int kGroups = 60000;
  const Schema schema({{"k", ValueType::kInt64, 0},
                       {"m", ValueType::kInt64, 0}});
  std::vector<Row> rows;
  for (int i = 0; i < 2 * kGroups; ++i) {
    rows.push_back({Value::Int64(kGroups - 1 - i / 2), Value::Int64(i)});
  }
  Table* t = db_.CreateTable("many_bt", schema).value();
  t->BulkLoad(rows);
  ASSERT_TRUE(t->SetPrimary(PrimaryKind::kBTree, {0}).ok());
  Query q;
  q.base.table = "many_bt";
  q.group_by = {ColRef{0, 0}};
  q.aggs = {AggSpec::CountStar(), AggSpec::Sum(Expr::Col(0, 1), "s")};
  PhysicalPlan p;
  p.base.kind = AccessPath::Kind::kBTreeFullScan;
  p.agg = AggMethod::kStream;
  p.dop = 1;
  ExecContext ctx;
  ctx.db = &db_;
  ctx.max_dop = 1;
  // Group g holds rows 2(kGroups-1-g) and 2(kGroups-1-g)+1.
  auto sum_of = [](int64_t g) { return 4 * (kGroups - 1 - g) + 1; };

  QueryResult all = Executor(ctx).Execute(q, p);
  ASSERT_TRUE(all.ok()) << all.status.ToString();
  EXPECT_EQ(all.row_count, static_cast<uint64_t>(kGroups));
  ASSERT_EQ(all.rows.size(), QueryResult::kMaxMaterializedRows);
  for (size_t i = 0; i < all.rows.size(); ++i) {
    EXPECT_EQ(all.rows[i][0].i64(), static_cast<int64_t>(i));
    EXPECT_EQ(all.rows[i][1].i64(), 2);
    EXPECT_EQ(all.rows[i][2].i64(), sum_of(static_cast<int64_t>(i)));
  }
  // Held slots stay within a small multiple of the output cap, not the
  // group count: three words per slot (count, sum, key).
  const uint64_t all_groups_bytes = uint64_t{kGroups} * 3 * 8;
  EXPECT_GT(all.metrics.peak_memory_bytes.load(), 0u);
  EXPECT_LT(all.metrics.peak_memory_bytes.load(), all_groups_bytes);

  Query top = q;
  top.limit = 3;
  top.order_by = {ColRef{0, 0}};
  QueryResult lim = Executor(ctx).Execute(top, p);
  ASSERT_TRUE(lim.ok());
  ASSERT_EQ(lim.row_count, 3u);
  ASSERT_EQ(lim.rows.size(), 3u);
  for (int64_t g = 0; g < 3; ++g) {
    EXPECT_EQ(lim.rows[g][0].i64(), g);
    EXPECT_EQ(lim.rows[g][2].i64(), sum_of(g));
  }
  // A LIMIT holds a few thousand slots at most (one staged batch of new
  // groups on top of twice the LIMIT).
  EXPECT_LT(lim.metrics.peak_memory_bytes.load(), all_groups_bytes / 10);
  EXPECT_EQ(lim.metrics.hash_probes.load(), 0u);
}

// A statement in a transaction runs the batch pipeline like an auto-commit
// one: its per-row transaction work — the row S lock under RC, the version
// chain walk under SI — is paid on each surviving match's locator, and
// only the sink columns are gathered. Every consumer, with and without a
// hash join, over compressed and delta rows, must match the heap plan;
// under RC both plans must take the same row S locks.
TEST_F(AggSinkTest, TransactionStatementsOnTheBatchPipelineMatchRowMode) {
  TCounter* grants = Telemetry::Instance().Counter("lock.grants");
  auto run = [&](const Query& q, bool batch, int dop, IsolationLevel iso,
                 uint64_t* locks) {
    PhysicalPlan p;
    p.base.kind =
        batch ? AccessPath::Kind::kCsiScan : AccessPath::Kind::kHeapScan;
    for (size_t s = 0; s < q.joins.size(); ++s) {
      JoinStep js;
      js.join_idx = static_cast<int>(s);
      js.dim_path.kind = AccessPath::Kind::kHeapScan;
      p.joins.push_back(js);
    }
    p.agg = q.aggs.empty() ? AggMethod::kNone : AggMethod::kHash;
    p.explicit_sort = !q.order_by.empty();
    p.dop = dop;
    TransactionManager tm;
    auto txn = tm.Begin(iso);
    ExecContext ctx;
    ctx.db = &db_;
    ctx.max_dop = dop;
    ctx.txn = txn.get();
    ctx.txns = &tm;
    const uint64_t before = grants->Value();
    QueryResult r = Executor(ctx).Execute(On(q, batch), p);
    *locks = grants->Value() - before;
    EXPECT_TRUE(tm.Commit(txn.get()).ok());
    return r;
  };
  // m_int leads every output row, so ORDER BY m_int is checkable.
  auto sorted_on_first = [](const QueryResult& r) {
    for (size_t i = 1; i < r.rows.size(); ++i) {
      if (r.rows[i - 1][0].Compare(r.rows[i][0]) > 0) return false;
    }
    return true;
  };
  for (bool join : {false, true}) {
    Query base;
    base.base.preds.push_back(
        Pred::Between(kSmall, Value::Int64(-5), Value::Int64(5)));
    if (join) base.joins.push_back(DimJoin());
    Query proj = base;
    proj.select_cols = {ColRef{0, kMInt}, ColRef{0, kTag}, ColRef{0, kMDbl}};
    if (join) proj.select_cols.push_back(ColRef{1, kGrp});
    Query order = proj;
    order.order_by = {ColRef{0, kMInt}};
    Query limit = proj;
    limit.limit = 25;
    Query agg = base;
    agg.group_by = {join ? ColRef{1, kGrp} : ColRef{0, kTag}};
    agg.aggs = {AggSpec::CountStar(), AggSpec::Sum(Expr::Col(0, kMInt), "s")};
    const std::pair<const char*, Query> cells[] = {
        {"projection", proj}, {"order_by", order}, {"limit", limit},
        {"group_by", agg}};
    for (const auto& [name, q] : cells) {
      for (IsolationLevel iso :
           {IsolationLevel::kReadCommitted, IsolationLevel::kSnapshot}) {
        for (int dop : {1, 4}) {
          SCOPED_TRACE(std::string(name) + (join ? " join " : " ") +
                       IsolationLevelName(iso) + " dop" + std::to_string(dop));
          uint64_t batch_locks = 0, row_locks = 0;
          QueryResult rb = run(q, true, dop, iso, &batch_locks);
          QueryResult rr = run(q, false, dop, iso, &row_locks);
          ASSERT_TRUE(rb.ok()) << rb.status.ToString();
          ASSERT_TRUE(rr.ok()) << rr.status.ToString();
          if (join) EXPECT_GT(rb.metrics.join_batch_probes.load(), 0u);
          if (q.limit >= 0) {
            // LIMIT without ORDER BY: any 25 qualifying rows.
            EXPECT_EQ(rb.row_count, 25u);
            EXPECT_EQ(rb.rows.size(), 25u);
            EXPECT_EQ(rr.row_count, 25u);
            // Both pipelines stop reading at the LIMIT row.
            if (iso == IsolationLevel::kReadCommitted && dop == 1) {
              EXPECT_EQ(batch_locks, row_locks);
            }
            continue;
          }
          ExpectSameRows(rb, rr);
          ASSERT_GT(rb.row_count, 0u);
          if (!q.order_by.empty()) {
            EXPECT_TRUE(sorted_on_first(rb));
            EXPECT_TRUE(sorted_on_first(rr));
          }
          if (iso == IsolationLevel::kReadCommitted) {
            EXPECT_GT(row_locks, 0u);
            EXPECT_EQ(batch_locks, row_locks);
          } else {
            EXPECT_EQ(batch_locks, 0u);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace hd
