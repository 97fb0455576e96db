// SQL parser tests: parsing, name resolution, error reporting, and
// end-to-end execution of parsed statements.
#include <gtest/gtest.h>

#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"

namespace hd {
namespace {

class SqlTest : public ::testing::Test {
 protected:
  SqlTest() {
    auto sales = db_.CreateTable(
        "sales", Schema({{"region", ValueType::kString, 8},
                         {"day", ValueType::kInt32, 0},
                         {"units", ValueType::kInt32, 0},
                         {"revenue", ValueType::kDouble, 0},
                         {"store_id", ValueType::kInt64, 0}}));
    static const char* kRegions[] = {"east", "north", "south", "west"};
    std::vector<Row> rows;
    for (int i = 0; i < 4000; ++i) {
      rows.push_back({Value::String(kRegions[i % 4]), Value::Int32(i % 100),
                      Value::Int32(1 + i % 5), Value::Double(10.0 + i % 50),
                      Value::Int64(i % 10)});
    }
    sales.value()->BulkLoad(rows);
    auto stores = db_.CreateTable(
        "stores", Schema({{"id", ValueType::kInt64, 0},
                          {"city", ValueType::kString, 8}}));
    std::vector<Row> srows;
    for (int i = 0; i < 10; ++i) {
      srows.push_back({Value::Int64(i),
                       Value::String(i < 5 ? "springfield" : "shelbyville")});
    }
    stores.value()->BulkLoad(srows);
  }

  Result<Query> Parse(const std::string& sql) { return ParseSql(db_, sql); }

  QueryResult Exec(const std::string& sql, uint64_t grant = 4ull << 30) {
    auto q = Parse(sql);
    EXPECT_TRUE(q.ok()) << sql << ": " << q.status().ToString();
    Optimizer opt(&db_);
    PlanOptions popts;
    popts.memory_grant_bytes = grant;
    auto plan = opt.Plan(*q, Configuration::FromCatalog(db_), popts);
    EXPECT_TRUE(plan.ok());
    ExecContext ctx;
    ctx.db = &db_;
    ctx.memory_grant_bytes = grant;
    Executor ex(ctx);
    QueryResult r = ex.Execute(*q, plan->plan);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status.ToString();
    return r;
  }

  Database db_;
};

TEST_F(SqlTest, SimpleAggregate) {
  QueryResult r = Exec("SELECT count(*), sum(units) FROM sales");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].i64(), 4000);
  int64_t expect = 0;
  for (int i = 0; i < 4000; ++i) expect += 1 + i % 5;
  EXPECT_EQ(r.rows[0][1].i64(), expect);
}

TEST_F(SqlTest, WhereConjunction) {
  QueryResult r = Exec(
      "SELECT count(*) FROM sales WHERE region = 'west' AND day < 10");
  int64_t expect = 0;
  for (int i = 0; i < 4000; ++i) {
    if (i % 4 == 3 && i % 100 < 10) ++expect;
  }
  EXPECT_EQ(r.rows[0][0].i64(), expect);
}

TEST_F(SqlTest, BetweenAndComparisons) {
  QueryResult r =
      Exec("SELECT count(*) FROM sales WHERE day BETWEEN 10 AND 19");
  EXPECT_EQ(r.rows[0][0].i64(), 400);
  QueryResult r2 = Exec("SELECT count(*) FROM sales WHERE day >= 90");
  EXPECT_EQ(r2.rows[0][0].i64(), 400);
}

TEST_F(SqlTest, GroupByOrderBy) {
  QueryResult r = Exec(
      "SELECT region, sum(revenue) FROM sales GROUP BY region ORDER BY region");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].str(), "east");
  EXPECT_EQ(r.rows[3][0].str(), "west");
}

// Strings inserted after a bulk load get dictionary codes out of string
// order; ORDER BY still returns Value order, whether the rows are sorted
// in memory, by the external merge sort, or as aggregate groups.
TEST_F(SqlTest, OrderByStringsInsertedAfterLoad) {
  auto t = db_.CreateTable("t", Schema({{"s", ValueType::kString, 8}}));
  ASSERT_TRUE(t.ok());
  std::vector<Row> rows;
  for (int i = 0; i < 12; ++i) {
    rows.push_back({Value::String(std::string(1, "bdf"[i % 3]))});
  }
  t.value()->BulkLoad(rows);
  Exec("INSERT INTO t VALUES ('a')");
  Exec("INSERT INTO t VALUES ('c')");
  auto letters = [](const QueryResult& r) {
    std::string s;
    for (const Row& row : r.rows) s += row[0].str();
    return s;
  };
  const std::string want = "abbbbcddddffff";
  EXPECT_EQ(letters(Exec("SELECT s FROM t ORDER BY s")), want);
  // 64 bytes of grant: sorted runs of 8 rows, merged.
  QueryResult spilled = Exec("SELECT s FROM t ORDER BY s", 64);
  EXPECT_TRUE(spilled.spilled);
  EXPECT_EQ(letters(spilled), want);
  EXPECT_EQ(letters(Exec("SELECT s, count(*) FROM t GROUP BY s ORDER BY s")),
            "abcdf");
}

TEST_F(SqlTest, ArithmeticAggregate) {
  QueryResult r =
      Exec("SELECT sum(revenue * (1 - 0.1)) FROM sales WHERE day = 0");
  double expect = 0;
  for (int i = 0; i < 4000; ++i) {
    if (i % 100 == 0) expect += (10.0 + i % 50) * 0.9;
  }
  EXPECT_NEAR(r.rows[0][0].f64(), expect, 1e-6);
}

TEST_F(SqlTest, JoinWithQualifiedNames) {
  QueryResult r = Exec(
      "SELECT count(*) FROM sales JOIN stores ON sales.store_id = stores.id "
      "WHERE stores.city = 'springfield'");
  int64_t expect = 0;
  for (int i = 0; i < 4000; ++i) {
    if (i % 10 < 5) ++expect;
  }
  EXPECT_EQ(r.rows[0][0].i64(), expect);
}

TEST_F(SqlTest, GroupByDimColumn) {
  QueryResult r = Exec(
      "SELECT city, count(*) FROM sales JOIN stores ON store_id = id "
      "GROUP BY city ORDER BY city");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].str(), "shelbyville");
  EXPECT_EQ(r.rows[1][0].str(), "springfield");
}

TEST_F(SqlTest, ProjectionWithLimit) {
  QueryResult r =
      Exec("SELECT day, units FROM sales WHERE region = 'east' LIMIT 7");
  EXPECT_EQ(r.row_count, 7u);
  ASSERT_EQ(r.rows.size(), 7u);
  EXPECT_EQ(r.rows[0].size(), 2u);
}

TEST_F(SqlTest, SelectStar) {
  QueryResult r = Exec("SELECT * FROM sales LIMIT 3");
  EXPECT_EQ(r.rows[0].size(), 5u);
}

TEST_F(SqlTest, UpdateAddAndAssign) {
  QueryResult r = Exec("UPDATE sales SET revenue = revenue + 5 WHERE day = 1");
  EXPECT_EQ(r.affected_rows, 40u);
  QueryResult r2 = Exec("UPDATE sales SET units = 99 WHERE day = 1 LIMIT 10");
  EXPECT_EQ(r2.affected_rows, 10u);
  QueryResult check = Exec("SELECT count(*) FROM sales WHERE units = 99");
  EXPECT_EQ(check.rows[0][0].i64(), 10);
}

TEST_F(SqlTest, DeleteAndInsert) {
  QueryResult d = Exec("DELETE FROM sales WHERE day = 42");
  EXPECT_EQ(d.affected_rows, 40u);
  QueryResult i = Exec(
      "INSERT INTO sales VALUES ('east', 42, 3, 19.5, 2), "
      "('west', 42, 1, 7.25, 4)");
  EXPECT_EQ(i.affected_rows, 2u);
  QueryResult c = Exec("SELECT count(*) FROM sales WHERE day = 42");
  EXPECT_EQ(c.rows[0][0].i64(), 2);
}

TEST_F(SqlTest, MinMaxAvg) {
  QueryResult r =
      Exec("SELECT min(day), max(day), avg(units) FROM sales");
  EXPECT_EQ(r.rows[0][0].i32(), 0);
  EXPECT_EQ(r.rows[0][1].i32(), 99);
  EXPECT_NEAR(r.rows[0][2].f64(), 3.0, 0.01);
}

// ---- error reporting ----

TEST_F(SqlTest, ErrorUnknownTable) {
  auto q = Parse("SELECT count(*) FROM nope");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("unknown table"), std::string::npos);
}

TEST_F(SqlTest, ErrorUnknownColumn) {
  auto q = Parse("SELECT bogus FROM sales");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("unknown column"), std::string::npos);
}

TEST_F(SqlTest, ErrorAmbiguousColumn) {
  // Both tables would need a shared name; create the ambiguity via a join
  // against a table that also has a 'day' column.
  auto extra = db_.CreateTable("days", Schema({{"day", ValueType::kInt32, 0}}));
  extra.value()->BulkLoad({{Value::Int32(1)}});
  auto q = Parse(
      "SELECT count(*) FROM sales JOIN days ON sales.day = days.day "
      "WHERE day = 3");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("ambiguous"), std::string::npos);
}

TEST_F(SqlTest, ErrorBadSyntax) {
  EXPECT_FALSE(Parse("SELEKT * FROM sales").ok());
  EXPECT_FALSE(Parse("SELECT FROM sales").ok());
  EXPECT_FALSE(Parse("SELECT count(*) FROM sales WHERE day !! 3").ok());
  EXPECT_FALSE(Parse("INSERT INTO sales VALUES (1)").ok());  // arity
}

TEST_F(SqlTest, ErrorMessageHasPosition) {
  auto q = Parse("SELECT count(*) FROM sales WHERE day <> 3");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("position"), std::string::npos);
}

}  // namespace
}  // namespace hd
