// Tests of the benchmark's own parts: the SQL the CH statements render to,
// and the span recorder's self-time arithmetic.
//
//   python3 chbench/run.py --test
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "ch_sql.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "spans.h"
#include "sql/parser.h"
#include "workload/ch.h"

namespace chbench {
namespace {

using namespace hd;

ChOptions SmallCh() {
  ChOptions co;
  co.warehouses = 1;
  co.customers_per_district = 30;
  co.initial_orders_per_district = 30;
  co.seed = 7;
  return co;
}

void ApplyKeys(Database* db) {
  using C = ChCols;
  ASSERT_TRUE(db->GetTable("customer")->SetPrimary(PrimaryKind::kBTree, {C::kCUid}).ok());
  ASSERT_TRUE(db->GetTable("orders")->SetPrimary(PrimaryKind::kBTree, {C::kOUid}).ok());
  ASSERT_TRUE(db->GetTable("stock")->SetPrimary(PrimaryKind::kBTree, {C::kSUid}).ok());
  ASSERT_TRUE(db->GetTable("order_line")->CreateSecondaryColumnStore("csi_ol").ok());
  for (auto& [n, t] : db->tables()) t->Analyze();
}

QueryResult Exec(Database* db, const Query& q) {
  auto pr = Optimizer(db).Plan(q, Configuration::FromCatalog(*db));
  EXPECT_TRUE(pr.ok()) << pr.status().ToString();
  if (!pr.ok()) {
    QueryResult r;
    r.status = pr.status();
    return r;
  }
  ExecContext ctx;
  ctx.db = db;
  return Executor(ctx).Execute(q, pr->plan);
}

std::vector<std::string> Sorted(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& r : rows) {
    std::string s;
    for (const Value& v : r) {
      // Doubles summed in different orders may differ in the last bits.
      char buf[64];
      if (v.kind() == Value::Kind::kDouble) {
        std::snprintf(buf, sizeof(buf), "%.9g|", v.f64());
        s += buf;
      } else {
        s += v.ToString() + "|";
      }
    }
    out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Every statement the CH generator emits, over enough draws to cover each
/// transaction type and every CH-H query.
std::vector<Query> GeneratedStatements(ChBenchmark* ch, int txns) {
  std::vector<Query> out;
  TxnGenerator gen = ch->MakeGenerator();
  Rng rng(11);
  for (int i = 0; i < txns; ++i) {
    TxnOp op = gen(1, &rng);
    out.insert(out.end(), op.statements.begin(), op.statements.end());
  }
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (const Query& q : ch->AnalyticQueries(seed)) out.push_back(q);
  }
  return out;
}

TEST(RenderSqlTest, EveryGeneratedShapeParses) {
  Database db;
  ChBenchmark ch(&db, SmallCh());
  std::set<std::string> ids;
  for (const Query& q : GeneratedStatements(&ch, 200)) {
    const std::string sql = RenderSql(db, q);
    Result<Query> parsed = ParseSql(db, sql);
    ASSERT_TRUE(parsed.ok()) << sql << "\n" << parsed.status().ToString();
    EXPECT_EQ(parsed->kind, q.kind) << sql;
    EXPECT_EQ(parsed->joins.size(), q.joins.size()) << sql;
    ids.insert(q.id);
  }
  for (const char* id : {"NewOrder", "Payment", "OrderStatus", "Delivery",
                         "StockLevel", "CH-Q1", "CH-Q3", "CH-Q4", "CH-Q5",
                         "CH-Q6", "CH-Q12", "CH-Q14", "CH-Q16", "CH-Q18",
                         "CH-Q19"}) {
    EXPECT_TRUE(ids.count(id)) << "generator never emitted " << id;
  }
}

// The rendered text, parsed and run, does what the generator's Query does:
// same rows for reads; same affected rows and same table contents for
// writes. Two databases loaded from one seed run the two forms in lockstep.
TEST(RenderSqlTest, RenderedStatementsMatchGeneratorQueries) {
  Database a, b;
  ChBenchmark ch_a(&a, SmallCh());
  ChBenchmark ch_b(&b, SmallCh());
  ApplyKeys(&a);
  ApplyKeys(&b);
  int reads = 0, writes = 0;
  for (const Query& q : GeneratedStatements(&ch_a, 60)) {
    const std::string sql = RenderSql(a, q);
    Result<Query> parsed = ParseSql(b, sql);
    ASSERT_TRUE(parsed.ok()) << sql;
    QueryResult ra = Exec(&a, q);
    QueryResult rb = Exec(&b, *parsed);
    ASSERT_TRUE(ra.ok()) << q.id << ": " << ra.status.ToString();
    ASSERT_TRUE(rb.ok()) << sql << ": " << rb.status.ToString();
    EXPECT_EQ(ra.row_count, rb.row_count) << sql;
    EXPECT_EQ(ra.affected_rows, rb.affected_rows) << sql;
    if (q.kind == Query::Kind::kSelect) {
      ++reads;
      if (q.limit < 0 || !q.order_by.empty()) {
        EXPECT_EQ(Sorted(ra.rows), Sorted(rb.rows)) << sql;
      }
      continue;
    }
    ++writes;
    Query all;
    all.base.table = q.base.table;
    EXPECT_EQ(Sorted(Exec(&a, all).rows), Sorted(Exec(&b, all).rows)) << sql;
  }
  EXPECT_GT(reads, 30);
  EXPECT_GT(writes, 30);
}

TEST(RenderSqlTest, LiteralsRoundTrip) {
  EXPECT_EQ(RenderLiteral(Value::Int32(-3)), "-3");
  EXPECT_EQ(RenderLiteral(Value::Date(11500)), "11500");
  EXPECT_EQ(RenderLiteral(Value::Double(5000)), "5000.0");
  EXPECT_EQ(RenderLiteral(Value::String("BC")), "'BC'");
  const double d = 1234.5678901234567;
  EXPECT_EQ(std::stod(RenderLiteral(Value::Double(d))), d);
}

Span At(const char* name, int64_t start, int64_t end, int parent) {
  return Span{name, start, end, parent, 1};
}

TEST(SpanTest, SelfTimeIsDurationMinusChildCoverage) {
  std::vector<Span> s = {At("stmt", 0, 100, -1), At("a", 10, 30, 0),
                         At("b", 50, 60, 0)};
  EXPECT_EQ(SelfTimesNs(s), (std::vector<int64_t>{70, 20, 10}));
}

TEST(SpanTest, OverlappingChildrenCountOnce) {
  std::vector<Span> s = {At("stmt", 0, 100, -1), At("a", 10, 40, 0),
                         At("b", 30, 50, 0), At("c", 45, 60, 0)};
  // Children cover [10, 60): 50 ns.
  EXPECT_EQ(SelfTimesNs(s)[0], 50);
}

TEST(SpanTest, ChildOutsideParentIsClipped) {
  std::vector<Span> s = {At("stmt", 100, 200, -1), At("a", 50, 120, 0),
                         At("b", 190, 400, 0)};
  // Only [100, 120) and [190, 200) lie inside the parent.
  EXPECT_EQ(SelfTimesNs(s)[0], 70);
}

TEST(SpanTest, StatementSelfTimesSumToItsSpan) {
  SpanRecorder rec;
  volatile double sink = 0;
  auto work = [&sink] {
    for (int i = 0; i < 20000; ++i) sink = sink + i * 0.5;
  };
  auto child = [&](const char* name, int parent) {
    const int i = rec.Begin(name, 42, parent);
    work();
    return i;
  };
  const int stmt = rec.Begin("stmt.write", 42);
  work();
  rec.End(child("sql.parse", stmt));
  const int exec = child("exec.execute", stmt);
  rec.End(child("storage.io", exec));
  rec.End(exec);
  rec.End(child("txn.commit", stmt));
  work();
  rec.End(stmt);
  const std::vector<Span>& spans = rec.spans();
  ASSERT_EQ(spans.size(), 5u);
  const std::vector<int64_t> self = SelfTimesNs(spans);
  int64_t sum = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_GE(self[i], 0);
    EXPECT_EQ(spans[i].trace_id, 42u);
    sum += self[i];
  }
  EXPECT_EQ(sum, spans[0].duration_ns());
}

}  // namespace
}  // namespace chbench
